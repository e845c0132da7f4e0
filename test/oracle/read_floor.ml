module E = C11.Execution
module A = C11.Action

let candidates x ~tid ~mo ~loc =
  let log = List.init (E.num_actions x) (E.action x) in
  let stores = Array.of_list (List.filter (fun (a : A.t) -> A.is_write a && a.loc = loc) log) in
  let mo_index id =
    let rec go i = if stores.(i).A.id = id then i else go (i + 1) in
    go 0
  in
  (* the load's knowledge: the clock of [tid]'s newest action *)
  let clock =
    List.fold_left (fun c (a : A.t) -> if a.tid = tid then a.clock else c) C11.Clock.empty log
  in
  let hb (a : A.t) = C11.Clock.covers clock ~tid:a.tid ~seq:a.seq in
  let sc_fences = List.filter (fun (a : A.t) -> a.kind = A.Fence && A.is_seq_cst a) log in
  (* [w] is followed in its own thread by a seq_cst fence committed
     before [before] *)
  let fenced ?(before = max_int) (w : A.t) =
    List.exists (fun (f : A.t) -> f.tid = w.tid && f.seq > w.seq && f.id < before) sc_fences
  in
  let newest p =
    let rec go i = if i < 0 then 0 else if p stores.(i) then i else go (i - 1) in
    go (Array.length stores - 1)
  in
  let corr =
    List.fold_left
      (fun floor (r : A.t) ->
        match r.rf with
        | Some w when A.is_atomic_read r && r.loc = loc && hb r -> max floor (mo_index w)
        | _ -> floor)
      0 log
  in
  let sc_load =
    if C11.Memory_order.is_seq_cst mo then [ newest A.is_seq_cst; newest (fun w -> fenced w) ]
    else []
  in
  let own_fence =
    match List.filter (fun (f : A.t) -> f.tid = tid) sc_fences with
    | [] -> []
    | fences ->
      let f = List.nth fences (List.length fences - 1) in
      [
        newest (fun w -> A.is_seq_cst w && w.id < f.id);
        newest (fun w -> fenced ~before:f.id w);
      ]
  in
  let floor = List.fold_left max 0 ((newest hb :: corr :: sc_load) @ own_fence) in
  List.rev (List.filteri (fun i _ -> i >= floor) (Array.to_list stores))

let window x ~tid ~mo ~loc = List.init (E.read_window x ~tid ~mo ~loc) (E.read_candidate x ~loc)
