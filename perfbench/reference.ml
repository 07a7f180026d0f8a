module R = Rat
module P = Platform

let knapsack items =
  let items = List.stable_sort (fun (c1, _) (c2, _) -> R.compare c1 c2) items in
  let rec fill room served = function
    | [] -> served
    | _ when R.sign room <= 0 -> served
    | (cost, rate) :: rest ->
      let need = R.mul rate cost in
      if R.compare need room <= 0 then fill (R.sub room need) (R.add served rate) rest
      else R.add served (R.div room cost)
  in
  fill R.one R.zero items

let bfs_tree p ~root =
  let parent_edge = Array.make (P.num_nodes p) (-1) in
  let seen = Array.make (P.num_nodes p) false in
  let queue = Queue.create () in
  seen.(root) <- true;
  Queue.add root queue;
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    List.sort compare (P.out_edges p v)
    |> List.iter (fun e ->
           let w = P.edge_dst p e in
           if not seen.(w) then begin
             seen.(w) <- true;
             parent_edge.(w) <- e;
             Queue.add w queue
           end)
  done;
  parent_edge

let tree_throughput p ~root ~parent_edge =
  let n = P.num_nodes p in
  let children = Array.make n [] in
  Array.iteri
    (fun v e -> if e >= 0 then children.(P.edge_src p e) <- (e, v) :: children.(P.edge_src p e))
    parent_edge;
  (* explicit post-order: trees of 10^4 nodes can be deep paths *)
  let rate = Array.make n R.zero in
  let stack = Stack.create () in
  Stack.push (root, false) stack;
  while not (Stack.is_empty stack) do
    match Stack.pop stack with
    | v, false ->
      Stack.push (v, true) stack;
      List.iter (fun (_, c) -> Stack.push (c, false) stack) children.(v)
    | v, true ->
      let items = List.map (fun (e, c) -> (P.edge_cost p e, rate.(c))) children.(v) in
      rate.(v) <- R.add (P.speed p v) (knapsack items)
  done;
  rate.(root)

let throughput_lower_bound p ~master =
  tree_throughput p ~root:master ~parent_edge:(bfs_tree p ~root:master)

let active (w : Faults.window) t =
  R.compare w.Faults.from t <= 0
  && match w.Faults.until with None -> true | Some u -> R.compare t u < 0

let cpu_multiplier faults i t =
  List.fold_left
    (fun m f ->
      match f with
      | (Faults.Node_crash (j, w) | Faults.Cpu_crash (j, w)) when j = i && active w t -> R.zero
      | Faults.Cpu_slow (j, w, factor) when j = i && active w t -> R.min m factor
      | _ -> m)
    R.one faults

let link_multiplier p faults e t =
  let src = P.edge_src p e and dst = P.edge_dst p e in
  List.fold_left
    (fun m f ->
      match f with
      | Faults.Link_cut (e', w) when e' = e && active w t -> R.zero
      | Faults.Node_crash (j, w) when (j = src || j = dst) && active w t -> R.zero
      | Faults.Link_slow (e', w, factor) when e' = e && active w t -> R.min m factor
      | _ -> m)
    R.one faults

let star_epoch_throughput p faults ~master ~at =
  let items =
    List.filter_map
      (fun e ->
        let lm = link_multiplier p faults e at in
        if R.sign lm <= 0 then None
        else
          let slave = P.edge_dst p e in
          let rate = R.mul (P.speed p slave) (cpu_multiplier faults slave at) in
          Some (R.div (P.edge_cost p e) lm, rate))
      (P.out_edges p master)
  in
  R.add (R.mul (P.speed p master) (cpu_multiplier faults master at)) (knapsack items)

let epoch_sum ~phase ~phases f =
  let total = ref R.zero in
  for k = 0 to phases - 1 do
    total := R.add !total (R.mul phase (f (R.mul_int phase k)))
  done;
  !total

let star_fault_bound p faults ~master ~phase ~phases =
  epoch_sum ~phase ~phases (fun at -> star_epoch_throughput p faults ~master ~at)

let capacity_bound p faults ~phase ~phases =
  epoch_sum ~phase ~phases (fun at ->
      R.sum (List.map (fun i -> R.mul (P.speed p i) (cpu_multiplier faults i at)) (P.nodes p)))

let check_master_slave p ~master ~alpha ~send ~ntask =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let in_unit x = R.sign x >= 0 && R.compare x R.one <= 0 in
  let flow e = R.div send.(e) (P.edge_cost p e) in
  let sum f l = R.sum (List.map f l) in
  let bad_alpha = List.find_opt (fun i -> not (in_unit alpha.(i))) (P.nodes p) in
  let bad_send = List.find_opt (fun e -> not (in_unit send.(e))) (P.edges p) in
  let port edges_of =
    List.find_opt (fun i -> R.compare (sum (fun e -> send.(e)) (edges_of p i)) R.one > 0) (P.nodes p)
  in
  let unbalanced =
    List.find_opt
      (fun i ->
        i <> master
        && not
             (R.equal
                (sum flow (P.in_edges p i))
                (R.add (R.mul alpha.(i) (P.speed p i)) (sum flow (P.out_edges p i)))))
      (P.nodes p)
  in
  match (bad_alpha, bad_send, port P.out_edges, port P.in_edges) with
  | Some i, _, _, _ -> err "alpha of %s outside [0,1]" (P.name p i)
  | _, Some e, _, _ -> err "send fraction on %s outside [0,1]" (P.edge_name p e)
  | _, _, Some i, _ -> err "out-port of %s busier than 1" (P.name p i)
  | _, _, _, Some i -> err "in-port of %s busier than 1" (P.name p i)
  | None, None, None, None -> (
    match List.find_opt (fun e -> R.sign send.(e) <> 0) (P.in_edges p master) with
    | Some e -> err "master receives on %s" (P.edge_name p e)
    | None -> (
      match unbalanced with
      | Some i -> err "conservation fails at %s" (P.name p i)
      | None ->
        let total = sum (fun i -> R.mul alpha.(i) (P.speed p i)) (P.nodes p) in
        if R.equal total ntask then Ok ()
        else err "computed rate %s <> ntask %s" (R.to_string total) (R.to_string ntask)))
