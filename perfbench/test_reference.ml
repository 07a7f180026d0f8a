(* The reference module against the library on small seeded inputs:
   agreement here is what lets the benchmark trust either side when it
   compares them on its workloads. *)

module R = Rat
module P = Platform
module D = Dynamic_sched
module MS = Master_slave

let rat = Alcotest.testable R.pp R.equal

let test_knapsack () =
  let r = R.of_ints in
  (* port time 1: the cost-1/2 item needs 1/2 for rate 1, the cost-1
     item gets the remaining 1/2 *)
  Alcotest.check rat "fractional fill" (r 3 2) (Reference.knapsack [ (R.one, R.two); (r 1 2, R.one) ]);
  Alcotest.check rat "all served" (r 1 2) (Reference.knapsack [ (R.one, r 1 4); (R.one, r 1 4) ]);
  Alcotest.check rat "empty" R.zero (Reference.knapsack [])

let test_trees () =
  for seed = 1 to 40 do
    let p = Platform_gen.random_tree ~seed ~nodes:(5 + (seed mod 25)) () in
    let want = (MS.solve p ~master:0).MS.ntask in
    Alcotest.check rat (Printf.sprintf "random tree %d vs solve" seed) want
      (Reference.throughput_lower_bound p ~master:0)
  done;
  let big = Platform_gen.random_tree ~seed:7 ~nodes:10_000 () in
  Alcotest.check rat "10^4-node tree vs solve_reduced" (MS.solve_reduced big ~master:0).MS.ntask
    (Reference.throughput_lower_bound big ~master:0)

let test_stars () =
  for seed = 1 to 10 do
    let g = Faults.generator ~seed in
    let slaves =
      List.init (3 + seed) (fun _ ->
          (Ext_rat.of_ints (1 + Faults.rand_int g 6) 2, R.of_ints (1 + Faults.rand_int g 4) 3))
    in
    let p = Platform_gen.star ~master_weight:(Ext_rat.of_int (2 + seed)) ~slaves () in
    Alcotest.check rat (Printf.sprintf "star %d" seed) (MS.solve p ~master:0).MS.ntask
      (Reference.star_epoch_throughput p [] ~master:0 ~at:R.zero)
  done

let test_graph_lower_bound_and_constraints () =
  for seed = 1 to 10 do
    let p = Platform_gen.random_connected_graph ~seed ~nodes:15 ~extra_edges:6 () in
    let sol = MS.solve p ~master:0 in
    let lower = Reference.throughput_lower_bound p ~master:0 in
    Alcotest.(check bool) "spanning-tree closed form <= ntask" true (R.compare lower sol.MS.ntask <= 0);
    Alcotest.(check (result unit string))
      "LP optimum passes the constraint evaluator" (Ok ())
      (Reference.check_master_slave p ~master:0 ~alpha:sol.MS.alpha ~send:sol.MS.send_frac ~ntask:sol.MS.ntask)
  done

let test_evaluator_rejects () =
  let p = Platform_gen.star ~master_weight:Ext_rat.inf ~slaves:[ (Ext_rat.one, R.one); (Ext_rat.one, R.one) ] () in
  let sol = MS.solve p ~master:0 in
  let alpha = Array.copy sol.MS.alpha and send = Array.copy sol.MS.send_frac in
  let check ~alpha ~send ~ntask = Reference.check_master_slave p ~master:0 ~alpha ~send ~ntask in
  Alcotest.(check bool) "wrong objective" true (Result.is_error (check ~alpha ~send ~ntask:(R.add sol.MS.ntask R.one)));
  let more = Array.copy alpha in
  more.(1) <- R.add more.(1) (R.of_ints 1 7);
  Alcotest.(check bool) "conservation" true
    (Result.is_error (check ~alpha:more ~send ~ntask:(R.add sol.MS.ntask (R.of_ints 1 7))));
  let busy = Array.map (fun _ -> R.one) send in
  Alcotest.(check bool) "ports" true (Result.is_error (check ~alpha ~send:busy ~ntask:sol.MS.ntask))

let star_scenario ~seed ~slaves =
  let g = Faults.generator ~seed in
  let slave_specs =
    List.init slaves (fun _ ->
        (Ext_rat.of_ints (2 + Faults.rand_int g 9) 2, R.of_ints (1 + Faults.rand_int g 5) 3))
  in
  let p = Platform_gen.star ~master_weight:Ext_rat.inf ~slaves:slave_specs () in
  let phase = R.of_int 4 and phases = 12 in
  let plan = Faults.random_plan g p ~master:0 ~horizon:(R.mul_int phase phases) ~align:phase ~faults:(slaves / 2) in
  let cpu_traces, bw_traces = Faults.traces p plan in
  ({ D.platform = p; master = 0; cpu_traces; bw_traces; phase; phases }, plan)

let test_fault_bound () =
  List.iter
    (fun (seed, slaves) ->
      let sc, plan = star_scenario ~seed ~slaves in
      Alcotest.check rat
        (Printf.sprintf "star fault bound n=%d" slaves)
        (D.fault_throughput_bound sc)
        (Reference.star_fault_bound sc.D.platform plan ~master:0 ~phase:sc.D.phase ~phases:sc.D.phases))
    [ (1, 20); (2, 50); (3, 100) ]

let test_multipliers_and_capacity () =
  let sc, plan = star_scenario ~seed:4 ~slaves:30 in
  let p = sc.D.platform in
  for k = 0 to sc.D.phases - 1 do
    let at = R.mul_int sc.D.phase k in
    List.iter
      (fun i ->
        Alcotest.check rat "cpu multiplier" (Faults.multiplier p plan (Event_sim.Cpu_of i) at)
          (Reference.cpu_multiplier plan i at))
      (P.nodes p);
    List.iter
      (fun e ->
        Alcotest.check rat "link multiplier" (Faults.multiplier p plan (Event_sim.Bw_of e) at)
          (Reference.link_multiplier p plan e at))
      (P.edges p)
  done;
  let cap = Reference.capacity_bound p plan ~phase:sc.D.phase ~phases:sc.D.phases in
  List.iter
    (fun strategy ->
      let o = D.run sc strategy in
      Alcotest.(check bool) "within the CPU-capacity bound" true (R.compare o.D.completed cap <= 0))
    [ D.Robust; D.Static ]

let () =
  Alcotest.run "perfbench-reference"
    [
      ( "reference",
        [
          Alcotest.test_case "knapsack" `Quick test_knapsack;
          Alcotest.test_case "tree closed form" `Quick test_trees;
          Alcotest.test_case "star closed form" `Quick test_stars;
          Alcotest.test_case "graph lower bound and constraints" `Quick test_graph_lower_bound_and_constraints;
          Alcotest.test_case "evaluator rejects violations" `Quick test_evaluator_rejects;
          Alcotest.test_case "star fault bound" `Quick test_fault_bound;
          Alcotest.test_case "multipliers and capacity bound" `Quick test_multipliers_and_capacity;
        ] );
    ]
