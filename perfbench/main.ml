(* Steady-state scheduling benchmark.

   [main.exe --workload W --seed N --seconds S --trace 0|1] builds W's
   inputs from N, runs whole rounds of W's operations one at a time
   (closed loop) for S seconds, checks every output against
   [Reference] or a required property, and prints one JSON line:
   {"correct", "attempted", "failed", "metrics"}.  With [--trace 0] the
   metrics are the end-to-end ones; with [--trace 1] the per-layer
   ones, from spans recorded around the calls into each layer plus the
   library's effort counters, and the spans go to
   _perfbench/traces/W-seedN.jsonl.  See README.md for what each
   workload and metric means. *)

module R = Rat
module P = Platform
module D = Dynamic_sched
module MS = Master_slave

let work_root = "_perfbench"
let setup_reps = 5
let setup_budget_s = 1.0
let setup_sample_ms = 20.
let sim_periods = 8

(* ---------------------------------------------------------------- *)
(* files *)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Sys.mkdir path 0o755
  end

let files_in dir ~keep =
  match Sys.readdir dir with
  | names -> List.filter keep (Array.to_list names) |> List.map (Filename.concat dir)
  | exception Sys_error _ -> []

let quarantined_files dir = List.length (files_in (Filename.concat dir "quarantine") ~keep:(fun _ -> true))

(* ---------------------------------------------------------------- *)
(* run state: operation accounting and per-round samples *)

type ctx = {
  traced : bool;
  mutable attempted : int;
  mutable failed : int;
  mutable inconsistent : string list;
      (* cross-operation checks that no single operation owns *)
  samples : (string, float list) Hashtbl.t;
}

let sample ctx name v =
  Hashtbl.replace ctx.samples name (v :: Option.value ~default:[] (Hashtbl.find_opt ctx.samples name))

let ms_between t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e6

let timed name f =
  let t0 = Spans.now_ns () in
  let r = Spans.span name f in
  (r, ms_between t0 (Spans.now_ns ()))

(* One operation: counted as attempted, timed under a span, failed if
   it raises.  Its output checks come later through [verdict]. *)
let attempt ctx op f =
  ctx.attempted <- ctx.attempted + 1;
  match timed op f with
  | r, ms -> Some (r, ms)
  | exception e ->
    ctx.failed <- ctx.failed + 1;
    Printf.eprintf "FAILED %s: raised %s\n%!" op (Printexc.to_string e);
    None

(* Record a timed operation's time as a step sample, adding it to the
   round's operation total. *)
let step ctx total name = function
  | Some (_, ms) ->
    total := !total +. ms;
    sample ctx name ms
  | None -> ()

let verdict ctx op errors =
  if errors <> [] then begin
    ctx.failed <- ctx.failed + 1;
    List.iter (fun e -> Printf.eprintf "FAILED %s: %s\n%!" op e) errors
  end

(* [expect [(ok, msg); ...]] is the messages of the conditions that fail *)
let expect conds = List.filter_map (fun (ok, msg) -> if ok then None else Some (msg ())) conds
let rs = R.to_string
let error_text = function Ok () -> "" | Error e -> e

(* ---------------------------------------------------------------- *)
(* per-layer accounting of one traced round *)

type layers = {
  stats : Lp.Stats.t option;
  mutable caches : Lp.Cache.t list;
  mutable slots : int;
  mutable tasks : R.t;
  mutable extra : (string * float) list;  (* exec.*, store.*, lp.disk_hits *)
  since : int;
  minor0 : float;
  major0 : int;
}

let begin_layers ctx =
  let g = Gc.quick_stat () in
  {
    stats = (if ctx.traced then Some (Lp.Stats.create ()) else None);
    caches = [];
    slots = 0;
    tasks = R.zero;
    extra = [];
    since = Spans.mark ();
    minor0 = g.Gc.minor_words;
    major0 = g.Gc.major_collections;
  }

(* A fresh LP memo for one operation when traced (its hit counters are
   read back), none otherwise: every run creates a fresh memo of its own
   when given none, so both cases do the same work. *)
let op_cache ly =
  match ly.stats with
  | None -> None
  | Some _ ->
    let c = Lp.Cache.create () in
    ly.caches <- c :: ly.caches;
    Some c

let span_metrics =
  [
    ("lp.solve_ms", "lp.solve_lp_only");
    ("tree_decomp.solve_ms", "tree_decomp.solve_reduced");
    ("tree_decomp.detect_ms", "tree_decomp.detect");
    ("recon.cancel_ms", "recon.cancel_cycles");
    ("recon.schedule_ms", "recon.schedule");
    ("recon.certify_ms", "recon.certify");
    ("sim.simulate_ms", "sim.simulate");
    ("sim.buffers_ms", "sim.check_buffers");
    ("platform.restrict_ms", "platform.surviving_platform");
  ]

let extra_metrics =
  [
    "lp.disk_hits"; "exec.robust_tasks"; "exec.static_tasks"; "exec.retries";
    "exec.cancelled_transfers"; "exec.timed_out_transfers"; "exec.lost_tasks";
    "exec.degraded_phases"; "store.stores"; "store.entries"; "store.bytes";
    "store.hits"; "store.quarantined"; "store.write_ms"; "store.read_ms";
  ]

let end_layers ctx ly =
  match ly.stats with
  | None -> ()
  | Some st ->
    let g = Gc.quick_stat () in
    let i = float_of_int in
    List.iter (fun (m, span) -> sample ctx m (Spans.total_ms ~since:ly.since span)) span_metrics;
    List.iter (fun m -> sample ctx m (Option.value ~default:0. (List.assoc_opt m ly.extra))) extra_metrics;
    let cache_sum f = i (List.fold_left (fun a c -> a + f c) 0 ly.caches) in
    List.iter
      (fun (m, v) -> sample ctx m v)
      [
        ("lp.solves", i st.Lp.Stats.solves);
        ("lp.pivots", i st.Lp.Stats.pivots);
        ("lp.warm_remapped", i st.Lp.Stats.warm_remapped);
        ("lp.cache_hits", cache_sum Lp.Cache.hits);
        ("lp.cache_misses", cache_sum Lp.Cache.misses);
        ("recon.slots", i ly.slots);
        ("recon.cycles_cancelled", i st.Lp.Stats.cycles_cancelled);
        ("recon.matchings_rebuilt", i st.Lp.Stats.matchings_rebuilt);
        ("recon.matchings_repaired", i st.Lp.Stats.matchings_repaired);
        ("recon.slots_reused", i st.Lp.Stats.slots_reused);
        ("recon.delays_reused", i st.Lp.Stats.delays_reused);
        ("sim.tasks", R.to_float ly.tasks);
        ("gc.minor_mwords", (g.Gc.minor_words -. ly.minor0) /. 1e6);
        ("gc.major_collections", i (g.Gc.major_collections - ly.major0));
      ]

let set_extra ly name v = ly.extra <- (name, v) :: List.remove_assoc name ly.extra

let note_losses ly (o : D.outcome) =
  let l = o.D.losses and i = float_of_int in
  List.iter
    (fun (m, v) -> set_extra ly m v)
    [
      ("exec.robust_tasks", R.to_float o.D.completed);
      ("exec.retries", i l.D.retries);
      ("exec.cancelled_transfers", i l.D.cancelled_transfers);
      ("exec.timed_out_transfers", i l.D.timed_out_transfers);
      ("exec.lost_tasks", i l.D.lost_tasks);
      ("exec.degraded_phases", i l.D.degraded_phases);
    ]

(* ---------------------------------------------------------------- *)
(* the static planning pipeline: schedule -> certify -> strict
   simulation -> buffer replay, as [steady-cli solve-ms] runs it *)

type planned = {
  sol : MS.solution;
  sched : Schedule.t;
  cert : (unit, string) result;
  run : MS.run;
  buffers : (unit, string) result;
}

let pipeline ly (sol : MS.solution) =
  let sched = Spans.span "recon.schedule" (fun () -> MS.schedule ?stats:ly.stats sol) in
  let cert = Spans.span "recon.certify" (fun () -> Reconstruct.certify sched) in
  let run = Spans.span "sim.simulate" (fun () -> MS.simulate ~periods:sim_periods sol) in
  let buffers =
    Spans.span "sim.check_buffers" (fun () ->
        MS.check_buffers sched ~master:sol.MS.master ~periods:sim_periods)
  in
  { sol; sched; cert; run; buffers }

let pipeline_errors ly pl =
  ly.slots <- ly.slots + Schedule.slot_count pl.sched;
  ly.tasks <- R.add ly.tasks pl.run.MS.completed;
  let per_period = R.sum (List.map snd pl.sched.Schedule.compute) in
  let want = R.mul pl.sol.MS.ntask pl.sched.Schedule.period in
  let r = pl.run in
  expect
    [
      (pl.cert = Ok (), fun () -> "certify: " ^ error_text pl.cert);
      (R.equal per_period want, fun () -> Printf.sprintf "tasks per period %s <> ntask x period %s" (rs per_period) (rs want));
      (R.equal r.MS.completed r.MS.expected, fun () -> Printf.sprintf "simulated %s <> expected %s" (rs r.MS.completed) (rs r.MS.expected));
      (R.compare r.MS.completed r.MS.upper_bound <= 0, fun () -> Printf.sprintf "simulated %s above bound %s" (rs r.MS.completed) (rs r.MS.upper_bound));
      (pl.buffers = Ok (), fun () -> "check_buffers: " ^ error_text pl.buffers);
    ]

(* The LP's raw per-edge task flow, before cycle cancelling. *)
let raw_flow sub ~master model (lp : Lp.solution) =
  let names_model, _, svars = MS.build_lp sub ~master in
  Array.mapi
    (fun e v -> R.div (Lp.value_by_name model lp (Lp.var_name names_model v)) (P.edge_cost sub e))
    svars

(* ---------------------------------------------------------------- *)
(* dynamic scenarios *)

type scenario = { sc : D.scenario; faults : Faults.fault list }

let scenario p ~seed ~faults ~phase ~phases =
  let g = Faults.generator ~seed in
  let plan =
    Faults.random_plan g p ~master:0 ~horizon:(R.mul_int phase phases) ~align:phase ~faults
  in
  let cpu_traces, bw_traces = Faults.traces p plan in
  let sc = { D.platform = p; master = 0; cpu_traces; bw_traces; phase; phases } in
  D.validate_scenario ~allow_outages:true sc;
  { sc; faults = plan }

let capacity s = Reference.capacity_bound s.sc.D.platform s.faults ~phase:s.sc.D.phase ~phases:s.sc.D.phases

(* [memo table key f] computes a reference value once per input. *)
let memo table key f =
  match Hashtbl.find_opt table key with
  | Some v -> v
  | None ->
    let v = f () in
    Hashtbl.replace table key v;
    v

(* Distinct positive sub-seeds, one per pool entry. *)
let sub_seed seed i = 1 + (((abs seed * 7919) + (i * 104729)) mod 1_000_000_000)

let has_compute sub = List.exists (fun i -> R.sign (P.speed sub i) > 0) (P.nodes sub)

let outcome_errors ~phases ~cap (o : D.outcome) =
  let l = o.D.losses in
  expect
    [
      (List.length o.D.per_phase = phases, fun () -> "per-phase series has the wrong length");
      (R.equal (R.sum o.D.per_phase) o.D.completed, fun () ->
        Printf.sprintf "per-phase counts sum to %s, completed %s" (rs (R.sum o.D.per_phase)) (rs o.D.completed));
      (l.D.timed_out_transfers + l.D.cancelled_transfers = l.D.retries + l.D.lost_tasks, fun () ->
        "loss accounting: timed out + cancelled <> retries + lost");
      (R.compare o.D.completed cap <= 0, fun () ->
        Printf.sprintf "completed %s above the CPU-capacity bound %s" (rs o.D.completed) (rs cap));
    ]

(* Same input, same answer: a later round on a scenario must reproduce
   the first round's outcome exactly. *)
let first_seen ctx table key v ~equal =
  match Hashtbl.find_opt table key with
  | None -> Hashtbl.replace table key v
  | Some v0 ->
    if not (equal v0 v) then
      ctx.inconsistent <- Printf.sprintf "%s differs between rounds on the same input" key :: ctx.inconsistent

(* Traced only: every epoch's re-plan on the true surviving platform,
   split by layer — restriction, tree detection, the monolithic LP
   (warm-started and memoised across epochs, as the fault bound solves
   it), cycle cancelling of its raw flow, the tree decomposition, and
   the planning pipeline on the decomposed plan. *)
let replay ly (s : scenario) ~star =
  let warm = Lp.Warm.create () and cache = Lp.Cache.create () in
  ly.caches <- cache :: ly.caches;
  let errors = ref [] in
  let err k fmt = Printf.ksprintf (fun m -> errors := Printf.sprintf "epoch %d: %s" k m :: !errors) fmt in
  for k = 0 to s.sc.D.phases - 1 do
    let at = R.mul_int s.sc.D.phase k in
    let restr = Spans.span "platform.surviving_platform" (fun () -> D.surviving_platform s.sc ~at) in
    let sub = restr.P.sub and m = restr.P.sub_of_node.(s.sc.D.master) in
    if has_compute sub then begin
      ignore (Spans.span "tree_decomp.detect" (fun () -> Tree_decomp.detect sub ~root:m));
      let model, res =
        Spans.span "lp.solve_lp_only" (fun () -> MS.solve_lp_only ~warm ~cache ?stats:ly.stats sub ~master:m)
      in
      match res with
      | Lp.Infeasible | Lp.Unbounded -> err k "LP not optimal"
      | Lp.Optimal lp -> (
        let raw = raw_flow sub ~master:m model lp in
        ignore (Spans.span "recon.cancel_cycles" (fun () -> Flow.cancel_cycles sub raw));
        let sol = Spans.span "tree_decomp.solve_reduced" (fun () -> MS.solve_reduced sub ~master:m) in
        if not (R.equal sol.MS.ntask lp.Lp.objective) then
          err k "solve_reduced %s <> LP %s" (rs sol.MS.ntask) (rs lp.Lp.objective);
        if star then begin
          let want = Reference.star_epoch_throughput s.sc.D.platform s.faults ~master:0 ~at in
          if not (R.equal sol.MS.ntask want) then err k "re-plan %s <> star closed form %s" (rs sol.MS.ntask) (rs want)
        end;
        match pipeline ly sol with
        | pl -> List.iter (err k "%s") (pipeline_errors ly pl)
        | exception e -> err k "pipeline raised %s" (Printexc.to_string e))
    end
  done;
  List.rev !errors

(* The replay is not one of the workload's operations (that would make
   the failed share depend on how many rounds are traced): a failed
   replay check makes the run incorrect instead. *)
let replay_checks ctx ly s ~star =
  let errors = Spans.span "replay" (fun () -> replay ly s ~star) in
  ctx.inconsistent <- List.map (fun e -> "replay: " ^ e) errors @ ctx.inconsistent

(* ---------------------------------------------------------------- *)
(* churn-star: Robust, Static and the fault bound on a churning star *)

(* The star's heterogeneity is fixed (weights 3/2..9/2, link costs
   2/3..2 by slave index); the seed draws the fault plans.  Each round
   runs another fault plan: per-plan times vary by about 15% (the plan
   changes the size of the exact rationals the LP pivots on, and a
   shared 2-core host's speed alone drifts by about 12% over seconds),
   so a steady median needs many plans per run: hence 100 slaves and 16
   epochs rather than 200 and 32. *)
let star_slaves = 100
let star_phase = R.of_int 4
let star_phases = 16
let star_pool = 16

let churn_setup ~seed =
  let slaves = List.init star_slaves (fun i -> (Ext_rat.of_ints (3 + (i mod 7)) 2, R.of_ints (2 + (i mod 5)) 3)) in
  let p = Platform_gen.star ~master_weight:Ext_rat.inf ~slaves () in
  Array.init star_pool (fun i ->
      scenario p ~seed:(sub_seed seed i) ~faults:(star_slaves / 2) ~phase:star_phase ~phases:star_phases)

type churn_ref = { bound : R.t; cap : R.t }

let churn_round =
  let refs = Hashtbl.create 16 and seen = Hashtbl.create 16 in
  fun ctx (pool : scenario array) idx ->
    let key = idx mod Array.length pool in
    let s = pool.(key) in
    let rf =
      memo refs key (fun () ->
          { bound = Reference.star_fault_bound s.sc.D.platform s.faults ~master:0 ~phase:star_phase ~phases:star_phases; cap = capacity s })
    in
    let ly = begin_layers ctx in
    let robust = attempt ctx "robust_run" (fun () -> D.run ?stats:ly.stats ?cache:(op_cache ly) s.sc D.Robust) in
    let static = attempt ctx "static_run" (fun () -> D.run ?stats:ly.stats ?cache:(op_cache ly) s.sc D.Static) in
    let bound = attempt ctx "fault_bound" (fun () -> D.fault_throughput_bound ?cache:(op_cache ly) s.sc) in
    let total = ref 0. in
    step ctx total "step1_ms" robust;
    step ctx total "step2_ms" static;
    step ctx total "step3_ms" bound;
    (match static with
    | Some (st, _) ->
      verdict ctx "static_run"
        (outcome_errors ~phases:star_phases ~cap:rf.cap st
        @ expect [ (st.D.losses = D.no_losses, fun () -> "Static reports losses") ]);
      first_seen ctx seen (Printf.sprintf "Static outcome on scenario %d" key) st ~equal:D.outcomes_equal;
      set_extra ly "exec.static_tasks" (R.to_float st.D.completed)
    | None -> ());
    (match robust with
    | Some (rb, _) ->
      let floor =
        match static with
        | Some (st, _) ->
          let largest = List.fold_left R.max R.zero st.D.per_phase in
          [
            (R.compare rb.D.completed (R.sub st.D.completed largest) >= 0, fun () ->
              Printf.sprintf "Robust %s below Static %s minus its largest phase %s" (rs rb.D.completed)
                (rs st.D.completed) (rs largest));
          ]
        | None -> []
      in
      verdict ctx "robust_run" (outcome_errors ~phases:star_phases ~cap:rf.cap rb @ expect floor);
      first_seen ctx seen (Printf.sprintf "Robust outcome on scenario %d" key) rb ~equal:D.outcomes_equal;
      note_losses ly rb
    | None -> ());
    (match bound with
    | Some (b, _) ->
      verdict ctx "fault_bound"
        (expect [ (R.equal b rf.bound, fun () -> Printf.sprintf "fault bound %s <> star closed form %s" (rs b) (rs rf.bound)) ])
    | None -> ());
    if ctx.traced then replay_checks ctx ly s ~star:true;
    end_layers ctx ly;
    !total

(* ---------------------------------------------------------------- *)
(* recover-graph: plain, checkpointed, and halted-then-resumed Robust
   runs on a general connected graph *)

let graph_nodes = 60
let graph_chords = 15
let graph_faults = 40
let graph_pool = 16
(* Epochs of 20 time units: the executors send floor(phase * rate)
   whole task files down each path of a phase's plan, and on these
   graphs the flow spreads over enough relay paths that epochs of 4
   floor every path to 0 and no task completes. *)
let graph_phase = R.of_int 20
let graph_phases = 32
let halt_epoch = graph_phases / 2

(* The crash-recovery operation runs on one fixed scenario, the same
   for every --seed: on it, [Dynamic_sched.resume] from epoch 16 is not
   bit-identical to the uninterrupted run (their per-epoch counts part
   at epoch 24), so this operation fails in every round.  Resuming the
   seeded scenarios instead would fail on roughly one scenario in 80,
   which no run-to-run comparison of failure counts can absorb. *)
let diverging_resume_seed = 893266

type recover_pool = { scenarios : scenario array; resume_case : scenario }

let graph_scenario s =
  let p = Platform_gen.random_connected_graph ~seed:s ~nodes:graph_nodes ~extra_edges:graph_chords () in
  scenario p ~seed:s ~faults:graph_faults ~phase:graph_phase ~phases:graph_phases

let recover_setup ~seed =
  {
    scenarios = Array.init graph_pool (fun i -> graph_scenario (sub_seed seed i));
    resume_case = graph_scenario diverging_resume_seed;
  }

(* Traced only: what the checkpointed run's store holds, and the cost
   of [Solve_store.add] and [find] per record of it, replayed into a
   scratch store. *)
let store_probe ly ~dir ~scratch =
  rm_rf scratch;
  let live = Solve_store.open_store dir in
  set_extra ly "store.entries" (float_of_int (Solve_store.entries live));
  set_extra ly "store.bytes" (float_of_int (Solve_store.bytes live));
  let records =
    files_in dir ~keep:(fun f -> Filename.check_suffix f ".rec")
    |> List.map (fun path -> (Filename.basename path, In_channel.with_open_bin path In_channel.input_all))
  in
  let st = Solve_store.open_store scratch in
  let n = float_of_int (max 1 (List.length records)) in
  let (), write_ms = timed "store.add" (fun () -> List.iter (fun (k, v) -> Solve_store.add st k v) records) in
  let missing, read_ms =
    timed "store.find" (fun () -> List.filter (fun (k, v) -> Solve_store.find st k <> Some v) records)
  in
  set_extra ly "store.write_ms" (write_ms /. n);
  set_extra ly "store.read_ms" (read_ms /. n);
  rm_rf scratch;
  List.map (fun (k, _) -> "store probe lost record " ^ k) missing

let recover_round =
  let caps = Hashtbl.create 16 and seen = Hashtbl.create 16 and uninterrupted = Hashtbl.create 1 in
  fun ctx (pool : recover_pool) idx ->
    let key = idx mod Array.length pool.scenarios in
    let s = pool.scenarios.(key) in
    let cap = memo caps key (fun () -> capacity s) in
    let rc = pool.resume_case in
    let rc_plain = memo uninterrupted () (fun () -> D.run rc.sc D.Robust) in
    let ly = begin_layers ctx in
    let work = Filename.concat work_root "work" in
    let ckpt_dir = Filename.concat work "ckpt" and halt_dir = Filename.concat work "halt" in
    rm_rf work;
    mkdir_p work;
    let plain = attempt ctx "robust_run" (fun () -> D.run ?stats:ly.stats ?cache:(op_cache ly) s.sc D.Robust) in
    let ckpt_cfg = { D.Checkpoint.dir = ckpt_dir; every = 1 } in
    let ckpt = attempt ctx "ckpt_run" (fun () -> D.run ?stats:ly.stats ~checkpoint:ckpt_cfg s.sc D.Robust) in
    let quarantine = ref (quarantined_files ckpt_dir) in
    (* the store probe and the rerun are traced-only extras, not
       operations: a failed check there makes the run incorrect *)
    if ctx.traced then begin
      let errs = store_probe ly ~dir:ckpt_dir ~scratch:(Filename.concat work "probe") in
      (* the disk tier as a resumed run meets it: a fresh handle on the
         store the checkpointed run wrote through *)
      let handle = Solve_store.open_store ckpt_dir in
      let cache = Lp.Cache.create ~disk:handle () in
      let rerun = Spans.span "disk_rerun" (fun () -> D.run ~cache s.sc D.Robust) in
      set_extra ly "lp.disk_hits" (float_of_int (Lp.Cache.disk_hits cache));
      set_extra ly "store.hits" (float_of_int (Solve_store.hits handle));
      quarantine := !quarantine + Solve_store.quarantined handle;
      let differs =
        match plain with
        | Some (o, _) when not (D.outcomes_equal o rerun) -> [ "disk-cached rerun differs from the plain run" ]
        | _ -> []
      in
      ctx.inconsistent <- errs @ differs @ ctx.inconsistent
    end;
    rm_rf ckpt_dir;
    let halt_cfg = { D.Checkpoint.dir = halt_dir; every = 1 } in
    let halted =
      Spans.span "halted_run" (fun () ->
          match D.run ~checkpoint:halt_cfg ~halt_at:halt_epoch rc.sc D.Robust with
          | _ -> None
          | exception D.Checkpoint.Halted k -> Some k
          | exception e ->
            Printf.eprintf "halted run raised %s\n%!" (Printexc.to_string e);
            None)
    in
    let before = if ctx.traced then Solve_store.entries (Solve_store.open_store halt_dir) else 0 in
    let resumed = attempt ctx "resume" (fun () -> D.resume ?stats:ly.stats ~checkpoint:halt_cfg rc.sc) in
    if ctx.traced then
      set_extra ly "store.stores" (float_of_int (Solve_store.entries (Solve_store.open_store halt_dir) - before));
    quarantine := !quarantine + quarantined_files halt_dir;
    set_extra ly "store.quarantined" (float_of_int !quarantine);
    rm_rf work;
    let total = ref 0. in
    step ctx total "step1_ms" plain;
    step ctx total "step2_ms" ckpt;
    step ctx total "step3_ms" resumed;
    let same what a b = (D.outcomes_equal a b, fun () -> what ^ " differs from the plain run") in
    (match plain with
    | Some (o, _) ->
      verdict ctx "robust_run" (outcome_errors ~phases:graph_phases ~cap o);
      first_seen ctx seen (Printf.sprintf "Robust outcome on scenario %d" key) o ~equal:D.outcomes_equal;
      note_losses ly o
    | None -> ());
    (match (ckpt, plain) with
    | Some (c, _), Some (o, _) ->
      verdict ctx "ckpt_run"
        (expect [ same "checkpointed run" c o; (!quarantine = 0, fun () -> "store quarantined records") ])
    | Some _, None -> verdict ctx "ckpt_run" [ "no plain run to compare with" ]
    | None, _ -> ());
    (match resumed with
    | Some ((r, from), _) ->
      verdict ctx "resume"
        (expect
           [
             (halted = Some halt_epoch, fun () -> "the halt did not fire at the chosen epoch");
             (from = Some halt_epoch, fun () -> "resume did not start from the halted epoch");
             (D.outcomes_equal r rc_plain, fun () ->
               Printf.sprintf "resumed run (%s tasks) differs from the uninterrupted run (%s tasks)"
                 (rs r.D.completed) (rs rc_plain.D.completed));
           ]);
      first_seen ctx seen "resumed outcome" r ~equal:D.outcomes_equal
    | None -> ());
    if ctx.traced then replay_checks ctx ly s ~star:false;
    end_layers ctx ly;
    !total

(* ---------------------------------------------------------------- *)
(* plan: static planning of general graphs (monolithic LP) and trees
   (tree decomposition) through the full pipeline *)

let graph_sizes = [ 30; 40; 50; 60; 70; 80; 90; 100 ]
let graphs_per_size = 4
let small_trees = 32
let small_tree_nodes = 1_000
let large_trees = 16
let large_tree_nodes = 10_000

type instance = { label : string; p : P.t; tree : bool }

type plan_pool = { graphs : instance array; small : instance array; large : instance array }

let plan_setup ~seed =
  let tree i nodes =
    let s = sub_seed seed (1000 + i) in
    { label = Printf.sprintf "tree%d/%d" nodes i; p = Platform_gen.random_tree ~seed:s ~nodes (); tree = true }
  in
  {
    graphs =
      Array.of_list
        (List.concat_map
           (fun n ->
             List.init graphs_per_size (fun j ->
                 let s = sub_seed seed ((n * graphs_per_size) + j) in
                 {
                   label = Printf.sprintf "graph%d/%d" n j;
                   p = Platform_gen.random_connected_graph ~seed:s ~nodes:n ~extra_edges:(n / 3) ();
                   tree = false;
                 }))
           graph_sizes);
    small = Array.init small_trees (fun i -> tree i small_tree_nodes);
    large = Array.init large_trees (fun i -> tree (small_trees + i) large_tree_nodes);
  }

(* Reference facts per instance, computed once: the closed form (exact
   on trees, a spanning-tree lower bound on graphs) and, on graphs, the
   tree-decomposition solver's answer. *)
type plan_ref = { closed_form : R.t; reduced : R.t option }

let plan_reference inst =
  let closed_form = Reference.throughput_lower_bound inst.p ~master:0 in
  let reduced = if inst.tree then None else Some (MS.solve_reduced inst.p ~master:0).MS.ntask in
  { closed_form; reduced }

let plan_instance ctx ly refs seen inst =
  let op = if inst.tree then "plan_tree" else "plan_graph" in
  let solve () =
    if inst.tree then Spans.span "tree_decomp.solve_reduced" (fun () -> MS.solve_reduced inst.p ~master:0)
    else Spans.span "plan.solve" (fun () -> MS.solve ?stats:ly.stats ?cache:(op_cache ly) inst.p ~master:0)
  in
  let result = attempt ctx op (fun () -> pipeline ly (solve ())) in
  (match result with
  | None -> ()
  | Some (pl, _) ->
    let rf = memo refs inst.label (fun () -> plan_reference inst) in
    let ntask = pl.sol.MS.ntask in
    let specific =
      if inst.tree then
        [ (R.equal ntask rf.closed_form, fun () -> Printf.sprintf "ntask %s <> closed form %s" (rs ntask) (rs rf.closed_form)) ]
      else
        let constraints =
          Reference.check_master_slave inst.p ~master:0 ~alpha:pl.sol.MS.alpha ~send:pl.sol.MS.send_frac ~ntask
        in
        [
          (rf.reduced = Some ntask, fun () -> "solve and solve_reduced disagree");
          (R.compare ntask rf.closed_form >= 0, fun () ->
            Printf.sprintf "ntask %s below the spanning-tree closed form %s" (rs ntask) (rs rf.closed_form));
          (constraints = Ok (), fun () -> "constraints: " ^ error_text constraints);
        ]
    in
    verdict ctx op (expect specific @ pipeline_errors ly pl);
    first_seen ctx seen ("ntask of " ^ inst.label) ntask ~equal:R.equal);
  if ctx.traced then begin
    ignore (Spans.span "tree_decomp.detect" (fun () -> Tree_decomp.detect inst.p ~root:0));
    if not inst.tree then begin
      let model, res = Spans.span "lp.solve_lp_only" (fun () -> MS.solve_lp_only inst.p ~master:0) in
      match res with
      | Lp.Optimal lp ->
        let raw = raw_flow inst.p ~master:0 model lp in
        ignore (Spans.span "recon.cancel_cycles" (fun () -> Flow.cancel_cycles inst.p raw))
      | Lp.Infeasible | Lp.Unbounded -> ctx.inconsistent <- (inst.label ^ ": LP not optimal") :: ctx.inconsistent
    end
  end;
  Option.map snd result

let plan_round =
  let refs = Hashtbl.create 64 and seen = Hashtbl.create 64 in
  fun ctx (pool : plan_pool) _idx ->
    let ly = begin_layers ctx in
    let total = ref 0. in
    let kind name set =
      let times = Array.to_list set |> List.filter_map (plan_instance ctx ly refs seen) in
      total := List.fold_left ( +. ) !total times;
      List.iter (sample ctx name) times
    in
    kind "step1_ms" pool.graphs;
    kind "step2_ms" pool.small;
    kind "step3_ms" pool.large;
    end_layers ctx ly;
    !total

(* ---------------------------------------------------------------- *)
(* driver *)

let median = function
  | [] -> nan
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let end_to_end = [ ("setup_s", "s"); ("step1_ms", "ms"); ("step2_ms", "ms"); ("step3_ms", "ms"); ("peak_heap_mb", "MB") ]

let per_layer =
  List.map (fun (m, _) -> (m, "ms")) span_metrics
  @ [
      ("lp.solves", "count"); ("lp.pivots", "count"); ("lp.warm_remapped", "count");
      ("lp.cache_hits", "count"); ("lp.cache_misses", "count"); ("lp.disk_hits", "count");
      ("recon.slots", "count"); ("recon.cycles_cancelled", "count"); ("recon.matchings_rebuilt", "count");
      ("recon.matchings_repaired", "count"); ("recon.slots_reused", "count"); ("recon.delays_reused", "count");
      ("sim.tasks", "count"); ("exec.robust_tasks", "count"); ("exec.static_tasks", "count");
      ("exec.retries", "count"); ("exec.cancelled_transfers", "count"); ("exec.timed_out_transfers", "count");
      ("exec.lost_tasks", "count"); ("exec.degraded_phases", "count"); ("store.stores", "count");
      ("store.entries", "count"); ("store.bytes", "bytes"); ("store.hits", "count");
      ("store.quarantined", "count"); ("store.write_ms", "ms"); ("store.read_ms", "ms");
      ("gc.minor_mwords", "Mwords"); ("gc.major_collections", "count"); ("trace.overhead_s", "s");
    ]

(* Set-up is timed in samples of at least [setup_sample_ms]: several
   set-ups on churn-star and recover-graph, one on plan.  Each sample
   so carries its set-ups' share of GC work; timed one by one, a
   set-up of a few ms had a median that moved by a quarter between runs,
   with and without a major slice in it.  [setup_s] is the median time
   per set-up over at least [setup_reps] samples taken over at least
   [setup_budget_s].  Every result but the last is dropped before the
   next one is built, so one input set is live while the run measures.
   No collection is forced between set-ups: on OCaml 5.1, hundreds of
   forced major collections left the heap of the later rounds several
   times larger (churn-star 238 MB against 36 MB), which would put the
   benchmark's own GC calls into [peak_heap_mb]. *)
let set_up ctx ~seed setup =
  let t0 = Spans.now_ns () and samples = ref 0 in
  let timed_sample () =
    let start = Spans.now_ns () in
    let rec go n =
      let inputs = setup ~seed in
      let ms = ms_between start (Spans.now_ns ()) in
      if ms < setup_sample_ms then go (n + 1)
      else begin
        sample ctx "setup_s" (ms /. 1000. /. float_of_int n);
        incr samples;
        inputs
      end
    in
    go 1
  in
  let rec loop () =
    let inputs = timed_sample () in
    if !samples >= setup_reps && ms_between t0 (Spans.now_ns ()) >= setup_budget_s *. 1000. then inputs
    else loop ()
  in
  loop ()

(* Set up, then run whole rounds until [seconds] have passed.  A traced
   run starts with one untraced round and traces the next one on the
   same input: the difference of their operation times is
   [trace.overhead_s]. *)
let drive ctx ~name ~seed ~seconds ~setup ~round =
  let inputs = set_up ctx ~seed setup in
  let t0 = Spans.now_ns () in
  let deadline = Int64.add t0 (Int64.of_float (seconds *. 1e9)) in
  let untraced_ms = ref nan in
  let rounds = ref 0 in
  (* a traced run needs one traced round after its untraced one *)
  let min_rounds = if ctx.traced then 2 else 1 in
  while !rounds < min_rounds || Int64.compare (Spans.now_ns ()) deadline < 0 do
    if ctx.traced && !rounds = 0 then begin
      let calibration = { ctx with traced = false } in
      untraced_ms := round calibration inputs 0;
      ctx.attempted <- ctx.attempted + calibration.attempted;
      ctx.failed <- ctx.failed + calibration.failed;
      ctx.inconsistent <- calibration.inconsistent @ ctx.inconsistent;
      Spans.enabled := true
    end
    else begin
      let idx = if ctx.traced then !rounds - 1 else !rounds in
      let ms = Spans.span "round" (fun () -> round ctx inputs idx) in
      if ctx.traced && !rounds = 1 then sample ctx "trace.overhead_s" ((ms -. !untraced_ms) /. 1000.)
    end;
    incr rounds
  done;
  Spans.enabled := false;
  let g = Gc.quick_stat () in
  sample ctx "peak_heap_mb" (float_of_int (g.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.);
  if ctx.traced then begin
    let dir = Filename.concat work_root "traces" in
    mkdir_p dir;
    let path = Filename.concat dir (Printf.sprintf "%s-seed%d.jsonl" name seed) in
    Spans.write_jsonl path;
    Printf.eprintf "spans written to %s; self time by span (s):\n" path;
    List.iter (fun (n, s) -> Printf.eprintf "  %-32s %10.4f\n" n s) (Spans.self_summary ())
  end;
  Printf.eprintf "%s: %d rounds, %d operations, %d failed\n%!" name !rounds ctx.attempted ctx.failed

let print_result ctx metrics =
  let value m = median (Option.value ~default:[] (Hashtbl.find_opt ctx.samples m)) in
  let missing = List.filter (fun (m, _) -> Float.is_nan (value m)) metrics in
  List.iter (fun (m, _) -> ctx.inconsistent <- ("no sample for " ^ m) :: ctx.inconsistent) missing;
  List.iter (fun e -> Printf.eprintf "INCONSISTENT: %s\n" e) ctx.inconsistent;
  let body =
    List.filter (fun (m, _) -> not (Float.is_nan (value m))) metrics
    |> List.map (fun (m, unit) -> Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m (value m) unit)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (ctx.inconsistent = []) ctx.attempted ctx.failed (String.concat ", " body)

let usage () =
  prerr_endline
    "usage: main.exe --workload churn-star|recover-graph|plan --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest -> workload := w; parse rest
    | "--seed" :: n :: rest -> seed := int_of_string_opt n; parse rest
    | "--seconds" :: s :: rest -> seconds := float_of_string_opt s; parse rest
    | "--trace" :: ("0" | "1" as t) :: rest -> trace := Some (t = "1"); parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (!seed, !seconds, !trace) with
  | Some seed, Some seconds, Some traced when seconds > 0. ->
    let ctx = { traced; attempted = 0; failed = 0; inconsistent = []; samples = Hashtbl.create 64 } in
    let name = !workload in
    (match name with
    | "churn-star" -> drive ctx ~name ~seed ~seconds ~setup:churn_setup ~round:churn_round
    | "recover-graph" -> drive ctx ~name ~seed ~seconds ~setup:recover_setup ~round:recover_round
    | "plan" -> drive ctx ~name ~seed ~seconds ~setup:plan_setup ~round:plan_round
    | _ -> usage ());
    print_result ctx (if traced then per_layer else end_to_end)
  | _ -> usage ()
