(* Vector clocks with a packed fast representation.

   Two physical forms hide behind the abstract [t], discriminated by
   [Obj.is_int]:

   - packed: an immediate int holding four 15-bit fields — entry [tid]
     for tids 0..3 lives at bits [15*tid .. 15*tid+14]. This covers any
     clock whose knowledge fits tids 0..3 with seqs <= 32767, i.e. all
     of a <=4-thread exploration under the default action caps. Join,
     set and leq are straight-line word arithmetic with no allocation,
     and equal packed clocks are physically equal ([==]) because OCaml
     immediates compare by value.
   - array: an immutable [int array] fallback for tids >= 4 or seqs >
     32767 — exactly the pre-packing representation, copy-on-write.

   Canonical-form invariant: a clock is packed iff it is packable.
   Constructors spill to the array form only when the result genuinely
   cannot be packed (a too-large tid or seq), and monotonicity does the
   rest: [set]/[join] never decrease an entry, so an unpackable array
   stays unpackable under every operation, and no array-form clock is
   ever pointwise-equal to a packed one. Consequences relied on
   elsewhere:

   - [equal] with both sides packed is integer equality; mixed
     representations are never equal; array-array falls back to the
     pointwise scan.
   - physical equality still implies [equal]: for arrays as before
     (joins return an argument unchanged when nothing grew), for packed
     unconditionally. The journal-on-[!=] checks in [Execution]
     therefore stay sound: [!=] only ever means a possible change, and
     skipping a journal entry for an unchanged value loses nothing.

   A second invariant keeps [pp] canonical: every array form has a
   nonzero last entry (constructors size arrays to the highest nonzero
   tid), so the printed dense list never grows spurious trailing
   zeros. *)

type t = Obj.t

let field_bits = 15
let field_mask = 0x7fff
let packed_tids = 4

(* The packed payload needs 60 bits plus the sign; on a 32-bit host
   every clock takes the array form and [empty] is [[||]]. *)
let use_packed = Sys.int_size > packed_tids * field_bits

let is_packed (c : t) = Obj.is_int c
let bits (c : t) : int = Obj.obj c
let of_bits (b : int) : t = Obj.repr b
let arr (c : t) : int array = Obj.obj c
let of_arr (a : int array) : t = Obj.repr a
let empty : t = if use_packed then of_bits 0 else of_arr [||]

let p_get b tid = (b lsr (tid * field_bits)) land field_mask

(* Highest packed tid + 1 with a nonzero entry — the array length a
   spill needs to keep the nonzero-last-entry invariant. *)
let p_top b =
  if b = 0 then 0
  else if b lsr (3 * field_bits) <> 0 then 4
  else if b lsr (2 * field_bits) <> 0 then 3
  else if b lsr field_bits <> 0 then 2
  else 1

let a_get a tid = if tid < Array.length a then Array.unsafe_get a tid else 0

let get c tid =
  if is_packed c then if tid < packed_tids then p_get (bits c) tid else 0
  else a_get (arr c) tid

(* Spill packed bits [b] into a fresh array of at least [n] entries. *)
let spill b n =
  let n = if p_top b > n then p_top b else n in
  let a = Array.make n 0 in
  let k = if packed_tids < n then packed_tids else n in
  for i = 0 to k - 1 do
    Array.unsafe_set a i (p_get b i)
  done;
  a

let set c tid seq =
  if is_packed c then begin
    let b = bits c in
    if tid < packed_tids && seq <= field_mask then begin
      let sh = tid * field_bits in
      if (b lsr sh) land field_mask >= seq then c
      else of_bits ((b land lnot (field_mask lsl sh)) lor (seq lsl sh))
    end
    else if (if tid < packed_tids then p_get b tid else 0) >= seq then c
    else begin
      (* Unpackable update: tid >= 4 or seq > 32767, so the spilled
         array is canonical (genuinely not packable). *)
      let a = spill b (tid + 1) in
      a.(tid) <- seq;
      of_arr a
    end
  end
  else begin
    let a = arr c in
    if a_get a tid >= seq then c
    else begin
      let n = Array.length a in
      let a' = Array.make (if n > tid + 1 then n else tid + 1) 0 in
      Array.blit a 0 a' 0 n;
      a'.(tid) <- seq;
      of_arr a'
    end
  end

let singleton ~tid ~seq = set empty tid seq

let p_join x y =
  if x = y || y = 0 then x
  else if x = 0 then y
  else begin
    let m = field_mask in
    let a0 = x land m and b0 = y land m in
    let a1 = (x lsr 15) land m and b1 = (y lsr 15) land m in
    let a2 = (x lsr 30) land m and b2 = (y lsr 30) land m in
    let a3 = x lsr 45 and b3 = y lsr 45 in
    (if a0 >= b0 then a0 else b0)
    lor ((if a1 >= b1 then a1 else b1) lsl 15)
    lor ((if a2 >= b2 then a2 else b2) lsl 30)
    lor ((if a3 >= b3 then a3 else b3) lsl 45)
  end

(* packed [b] ⊔ array [a]; returns [ca] (the array-form operand) when
   the packed side adds nothing. The result stays array-form: it
   dominates the unpackable [a] pointwise. *)
let pa_join b a ca =
  if b = 0 then ca
  else begin
    let covered = ref true in
    (try
       for i = 0 to packed_tids - 1 do
         if p_get b i > a_get a i then begin
           covered := false;
           raise Exit
         end
       done
     with Exit -> ());
    if !covered then ca
    else begin
      let la = Array.length a in
      let n = if la > p_top b then la else p_top b in
      let c = Array.make n 0 in
      Array.blit a 0 c 0 la;
      for i = 0 to packed_tids - 1 do
        let v = p_get b i in
        if v > a_get c i then c.(i) <- v
      done;
      of_arr c
    end
  end

(* array ⊔ array, returning the dominating operand unchanged when the
   other adds nothing. *)
let aa_join a b ca cb =
  let la = Array.length a and lb = Array.length b in
  if la >= lb then begin
    let need = ref false in
    (try
       for i = 0 to lb - 1 do
         if Array.unsafe_get b i > Array.unsafe_get a i then begin
           need := true;
           raise Exit
         end
       done
     with Exit -> ());
    if not !need then ca
    else begin
      let c = Array.copy a in
      for i = 0 to lb - 1 do
        if Array.unsafe_get b i > Array.unsafe_get c i then
          Array.unsafe_set c i (Array.unsafe_get b i)
      done;
      of_arr c
    end
  end
  else begin
    let need = ref false in
    (try
       for i = 0 to la - 1 do
         if Array.unsafe_get a i > Array.unsafe_get b i then begin
           need := true;
           raise Exit
         end
       done
     with Exit -> ());
    if not !need then cb
    else begin
      let c = Array.copy b in
      for i = 0 to la - 1 do
        if Array.unsafe_get a i > Array.unsafe_get c i then
          Array.unsafe_set c i (Array.unsafe_get a i)
      done;
      of_arr c
    end
  end

let join a b =
  if is_packed a then
    if is_packed b then of_bits (p_join (bits a) (bits b)) else pa_join (bits a) (arr b) b
  else if is_packed b then pa_join (bits b) (arr a) a
  else aa_join (arr a) (arr b) a b

let covers c ~tid ~seq = get c tid >= seq

let p_leq x y =
  x = y
  || (let m = field_mask in
      x land m <= y land m
      && (x lsr 15) land m <= (y lsr 15) land m
      && (x lsr 30) land m <= (y lsr 30) land m
      && x lsr 45 <= y lsr 45)

let aa_leq a b =
  let la = Array.length a in
  let rec go i = i >= la || (Array.unsafe_get a i <= a_get b i && go (i + 1)) in
  go 0

let leq a b =
  if is_packed a then
    if is_packed b then p_leq (bits a) (bits b)
    else begin
      let x = bits a and bb = arr b in
      let rec go i =
        i >= packed_tids || (p_get x i <= a_get bb i && go (i + 1))
      in
      go 0
    end
  else if is_packed b then
    (* array <= packed is impossible: the array form is canonical only
       for unpackable clocks, which exceed every packed one somewhere. *)
    false
  else aa_leq (arr a) (arr b)

let equal a b =
  if is_packed a then is_packed b && bits a = bits b
  else if is_packed b then false
  else
    let x = arr a and y = arr b in
    aa_leq x y && aa_leq y x

let to_dense c =
  if is_packed c then begin
    let b = bits c in
    List.init (p_top b) (p_get b)
  end
  else Array.to_list (arr c)

let pp ppf c =
  Format.fprintf ppf "[%a]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
       Format.pp_print_int)
    (to_dense c)
