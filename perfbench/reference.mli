(** Reference results for the benchmark's output checks, computed
    without the library's solvers, decomposition or fault compiler.

    Everything here reads the inputs through {!Platform}'s accessors and
    the fault list's constructors only, and works in exact {!Rat}
    arithmetic, so a check against these values never compares the
    library with itself. *)

val knapsack : (Rat.t * Rat.t) list -> Rat.t
(** [knapsack items] is the bandwidth-centric allocation of one unit of
    port time: items are [(cost, rate)] pairs (time units per task on
    the link, tasks per time unit the receiver can absorb), served by
    increasing cost, the last one fractionally.  Returns the total rate
    served. *)

val bfs_tree : Platform.t -> root:Platform.node -> int array
(** Breadth-first spanning tree of the part of the platform reachable
    from [root] over directed edges: per node, the edge from its tree
    parent ([-1] at the root and at unreached nodes).  Ties are broken
    by edge index, so the tree is a function of the platform alone. *)

val tree_throughput :
  Platform.t -> root:Platform.node -> parent_edge:int array -> Rat.t
(** Closed-form steady-state throughput of the tree given by
    [parent_edge] (as {!bfs_tree} returns it), reduced bottom-up: a
    node absorbs its own speed plus the {!knapsack} of its children's
    absorption rates over their link costs.  On a platform whose
    reachable part is that tree this is the optimum [ntask]; on any
    other platform it is a lower bound on it (the tree's schedule runs
    on the full platform). *)

val throughput_lower_bound : Platform.t -> master:Platform.node -> Rat.t
(** [tree_throughput] on [bfs_tree]: the exact optimum on trees, a
    lower bound on general graphs. *)

val cpu_multiplier : Faults.fault list -> Platform.node -> Rat.t -> Rat.t
(** Multiplier of a node's CPU at a time: the minimum over the faults
    active then ([Node_crash]/[Cpu_crash] give 0, [Cpu_slow] its
    factor), 1 when none is.  A window is active on [[from, until)]. *)

val link_multiplier :
  Platform.t -> Faults.fault list -> Platform.edge -> Rat.t -> Rat.t
(** Multiplier of an edge at a time: [Link_cut] and a [Node_crash] of
    either endpoint give 0, [Link_slow] its factor. *)

val star_epoch_throughput :
  Platform.t -> Faults.fault list -> master:Platform.node -> at:Rat.t -> Rat.t
(** Optimal throughput of a star at a time: the master's own scaled
    speed plus the {!knapsack} over the slaves whose link from the
    master is alive, with multiplier-scaled speeds and link costs. *)

val star_fault_bound :
  Platform.t ->
  Faults.fault list ->
  master:Platform.node ->
  phase:Rat.t ->
  phases:int ->
  Rat.t
(** Sum over epochs of [phase * star_epoch_throughput] at the epoch
    start: the per-epoch fault bound of a star when every fault window
    sits on the phase grid. *)

val capacity_bound :
  Platform.t -> Faults.fault list -> phase:Rat.t -> phases:int -> Rat.t
(** Sum over epochs and computing nodes of [phase * speed * cpu
    multiplier at the epoch start]: no schedule completes more work
    when every CPU fault window sits on the phase grid. *)

val check_master_slave :
  Platform.t ->
  master:Platform.node ->
  alpha:Rat.t array ->
  send:Rat.t array ->
  ntask:Rat.t ->
  (unit, string) result
(** Evaluates the paper's master–slave constraints on a claimed
    solution: [0 <= alpha_i <= 1], [0 <= s_ij <= 1], out-port and
    in-port sums at most 1, no send into the master, conservation
    [sum_in s/c = alpha_i * speed_i + sum_out s/c] at every other node,
    and [sum_i alpha_i * speed_i = ntask].  [Error] names the first
    violated constraint. *)
