(* In-memory span recorder.  Spans are kept in a growing list while the
   run measures and written out once, as JSON lines, when it ends; with
   recording off, [span] is a plain call. *)

type span = {
  id : int;
  parent : int;  (** [-1] for a root span *)
  name : string;
  start_ns : int64;
  stop_ns : int64;
}

let now_ns () = Monotonic_clock.now ()

let enabled = ref false
let recorded : span list ref = ref []
let next_id = ref 0
let current = ref (-1)

let span name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = !current in
    current := id;
    let start_ns = now_ns () in
    let finish () =
      recorded := { id; parent; name; start_ns; stop_ns = now_ns () } :: !recorded;
      current := parent
    in
    match f () with
    | r -> finish (); r
    | exception e -> finish (); raise e
  end

let duration_ns s = Int64.sub s.stop_ns s.start_ns

(* Self time: a span's duration minus the time its direct children
   cover (children of one span never overlap: calls are sequential). *)
let self_times spans =
  let child_ns = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let prev = Option.value ~default:0L (Hashtbl.find_opt child_ns s.parent) in
        Hashtbl.replace child_ns s.parent (Int64.add prev (duration_ns s)))
    spans;
  List.map
    (fun s ->
      (s, Int64.sub (duration_ns s) (Option.value ~default:0L (Hashtbl.find_opt child_ns s.id))))
    spans

let spans () = List.rev !recorded

let mark () = !next_id

(* Total duration, in ms, of the spans named [name] that started at or
   after [mark ()] returned [since].  Spans finish in order, so the ones
   started since then sit at the head of the list. *)
let total_ms ~since name =
  let rec go acc = function
    | s :: rest when s.id >= since ->
      go (if s.name = name then acc +. (Int64.to_float (duration_ns s) /. 1e6) else acc) rest
    | _ -> acc
  in
  go 0. !recorded

let write_jsonl path =
  let oc = open_out path in
  List.iter
    (fun (s, self) ->
      Printf.fprintf oc
        "{\"id\": %d, \"parent\": %d, \"name\": %S, \"start_ns\": %Ld, \"end_ns\": %Ld, \"self_ns\": %Ld}\n"
        s.id s.parent s.name s.start_ns s.stop_ns self)
    (self_times (spans ()));
  close_out oc

(* Per-name self-time totals, largest first. *)
let self_summary () =
  let acc = Hashtbl.create 64 in
  List.iter
    (fun (s, self) ->
      let prev = Option.value ~default:0L (Hashtbl.find_opt acc s.name) in
      Hashtbl.replace acc s.name (Int64.add prev self))
    (self_times (spans ()));
  Hashtbl.fold (fun name ns l -> (name, Int64.to_float ns /. 1e9) :: l) acc []
  |> List.sort (fun (_, a) (_, b) -> compare b a)
