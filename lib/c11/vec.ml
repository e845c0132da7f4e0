type 'a t = { mutable data : 'a array; mutable len : int }

let create () = { data = [||]; len = 0 }

let[@inline] length v = v.len

let grow v x =
  let cap = Array.length v.data in
  let cap' = if cap = 0 then 8 else cap * 2 in
  let data = Array.make cap' x in
  Array.blit v.data 0 data 0 v.len;
  v.data <- data

(* Element accesses validate against [len] explicitly, then use unsafe
   array primitives: the explicit check subsumes the bounds check the
   safe primitives would repeat. *)

let[@inline] push v x =
  if v.len = Array.length v.data then grow v x;
  Array.unsafe_set v.data v.len x;
  v.len <- v.len + 1

let[@inline] get v i =
  if i < 0 || i >= v.len then invalid_arg "Vec.get";
  Array.unsafe_get v.data i

let[@inline] set v i x =
  if i < 0 || i >= v.len then invalid_arg "Vec.set";
  Array.unsafe_set v.data i x

let[@inline] last v =
  if v.len = 0 then invalid_arg "Vec.last";
  Array.unsafe_get v.data (v.len - 1)

let[@inline] last_or v default =
  if v.len = 0 then default else Array.unsafe_get v.data (v.len - 1)

let[@inline] is_empty v = v.len = 0

let truncate v n = if n < 0 || n > v.len then invalid_arg "Vec.truncate" else v.len <- n

let[@inline] pop v =
  if v.len = 0 then invalid_arg "Vec.pop";
  v.len <- v.len - 1;
  Array.unsafe_get v.data v.len

let copy v = { data = Array.copy v.data; len = v.len }

let[@inline] unsafe_data v = v.data

let iter f v =
  for i = 0 to v.len - 1 do
    f (Array.unsafe_get v.data i)
  done

let iteri f v =
  for i = 0 to v.len - 1 do
    f i (Array.unsafe_get v.data i)
  done

let to_list v = List.init v.len (fun i -> Array.unsafe_get v.data i)
