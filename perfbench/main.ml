(* The re-timed benchmark: four workloads over the futurenet libraries.

   This program is a client of the libraries.  It builds each
   workload's inputs from the seed it is given, times its own calls
   into each layer's public functions, reads the counts those calls
   return, and checks every output.  Nothing inside lib/ is
   instrumented.  One process, one domain, no pool, default GC
   settings.

   Usage:
     main.exe --workload W --seed S --seconds T --trace 0|1 --out DIR

   Iterations repeat until [--seconds] have passed (at least
   [min_iterations]).  Every iteration rebuilds its inputs from the
   seed, so each one is a run of the same seed: its deterministic
   counts must equal the first iteration's.  Traced runs end with an
   untimed iteration on a held-out seed, which must pass every check
   and give different counts.

   With [--trace 0] the last stdout line carries the end-to-end
   metrics.  With [--trace 1] iterations alternate untraced / traced;
   traced ones record spans (name, start, end, parent, GC deltas) in
   memory and read GC pauses from [Runtime_events], and the last
   stdout line carries the per-layer metrics.  The spans are written
   to DIR/spans-W-seedS.json when the run ends. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* -- spans ------------------------------------------------------------- *)

type span = {
  id : int;
  name : string;
  tag : string;  (* chaos schedules: the family *)
  parent : int;  (* -1 for the iteration root *)
  iteration : int;
  start : float;
  stop : float;
  minor_words : float;
  promoted_words : float;
  minor_gcs : int;
  major_gcs : int;
}

let tracing = ref false
let iteration_no = ref 0
let spans : span list ref = ref []
let open_spans : int list ref = ref []
let next_id = ref 0

(* GC pause time from the runtime's own event ring: the union of the
   intervals during which any runtime phase is open, so nested phases
   count once.  Only read while a traced iteration runs. *)
let gc_pause_s = ref 0.
let gc_lost_events = ref 0
let gc_depth = ref 0
let gc_since = ref 0L

let gc_callbacks =
  let counted = function
    | Runtime_events.EV_EXPLICIT_GC_STAT | EV_DOMAIN_CONDITION_WAIT -> false
    | _ -> true
  in
  Runtime_events.Callbacks.create
    ~runtime_begin:(fun _ ts phase ->
      if counted phase then begin
        if !gc_depth = 0 then gc_since := Runtime_events.Timestamp.to_int64 ts;
        incr gc_depth
      end)
    ~runtime_end:(fun _ ts phase ->
      if counted phase && !gc_depth > 0 then begin
        decr gc_depth;
        if !gc_depth = 0 then
          gc_pause_s :=
            !gc_pause_s
            +. Int64.to_float
                 (Int64.sub (Runtime_events.Timestamp.to_int64 ts) !gc_since)
               *. 1e-9
      end)
    ~lost_events:(fun _ k ->
      gc_lost_events := !gc_lost_events + k;
      gc_depth := 0)
    ()

let gc_cursor = lazy (Runtime_events.create_cursor None)

let poll_gc () =
  if !tracing then
    ignore (Runtime_events.read_poll (Lazy.force gc_cursor) gc_callbacks None : int)

(* [timed name f] runs [f], returning its result and wall seconds; when
   tracing, it also records a span nested under the innermost open one. *)
let timed ?(tag = "") name f =
  if not !tracing then begin
    let t0 = now () in
    let r = f () in
    (r, now () -. t0)
  end
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_spans with p :: _ -> p | [] -> -1 in
    open_spans := id :: !open_spans;
    let g0 = Gc.quick_stat () in
    let t0 = now () in
    let r =
      try f ()
      with e ->
        open_spans := List.tl !open_spans;
        raise e
    in
    let t1 = now () in
    let g1 = Gc.quick_stat () in
    open_spans := List.tl !open_spans;
    spans :=
      {
        id;
        name;
        tag;
        parent;
        iteration = !iteration_no;
        start = t0;
        stop = t1;
        minor_words = g1.minor_words -. g0.minor_words;
        promoted_words = g1.promoted_words -. g0.promoted_words;
        minor_gcs = g1.minor_collections - g0.minor_collections;
        major_gcs = g1.major_collections - g0.major_collections;
      }
      :: !spans;
    poll_gc ();
    (r, t1 -. t0)
  end

(* -- one iteration's record -------------------------------------------- *)

type iter = {
  mutable values : (string * float) list;  (* summed by name *)
  mutable counts : (string * float) list;  (* summed by name; must repeat *)
  mutable schedules : (string * float) list;  (* chaos: (family, ms) *)
  mutable attempted : int;
  mutable failures : string list;
  mutable check_s : float;
}

let new_iter () =
  { values = []; counts = []; schedules = []; attempted = 0; failures = [];
    check_s = 0. }

let add it name v = it.values <- (name, v) :: it.values
let count it name v = it.counts <- (name, float_of_int v) :: it.counts

(* A check's own time is excluded from [run_s]. *)
let check it name cond =
  let t0 = now () in
  let ok = try cond () with _ -> false in
  it.check_s <- it.check_s +. (now () -. t0);
  it.attempted <- it.attempted + 1;
  if not ok then it.failures <- name :: it.failures

let find tbl k = Option.value ~default:0. (Hashtbl.find_opt tbl k)
let bump tbl k v = Hashtbl.replace tbl k (v +. find tbl k)

let sum_by_name l =
  let tbl = Hashtbl.create 64 in
  List.iter (fun (k, v) -> bump tbl k v) l;
  tbl

(* Simulated work: (syscalls + hops) and the host seconds it took. *)
let simulated it ~ops ~secs =
  add it "sim.ops" (float_of_int ops);
  add it "sim.s" secs

(* -- setup layers ------------------------------------------------------ *)

(* Uncached setup: graph, tree, labelling and routes are computed
   directly, never through Compile.Cache, so [setup_s] is paid on every
   iteration. *)
let build_graph it ~seed ~n =
  let g, secs =
    timed "graph.build" (fun () ->
        Netgraph.Builders.random_connected (Sim.Rng.create ~seed) ~n
          ~extra_edges:(n / 2))
  in
  add it "setup_s" secs;
  g

let setup_bpaths it ~seed ~n =
  let g = build_graph it ~seed ~n in
  let tree, t_bfs = timed "graph.bfs" (fun () -> Netgraph.Spanning.bfs_tree g ~root:0) in
  let labels, t_lab = timed "labels.compute" (fun () -> Core.Labels.compute tree) in
  let routes, t_routes =
    timed "compile.routes" (fun () -> Compile.Topology.compile_routes labels g)
  in
  add it "setup_s" (t_bfs +. t_lab +. t_routes);
  (g, labels, routes)

(* Setup must not be served from Compile.Cache: the cache sees no hit
   while it runs. *)
let check_setup_uncached it ~before =
  let after = Compile.Cache.stats () in
  check it "setup.cache_miss" (fun () -> after.hits = before.Compile.Cache.hits)

(* -- protocol runs ----------------------------------------------------- *)

let log2_ceil n =
  let rec go k p = if p >= n then k else go (k + 1) (2 * p) in
  go 0 1

(* One protocol call, timed as a layer span.  An exception out of the
   library is a failed check, not the end of the run. *)
let protocol ?tag ?(what = "") it name run =
  match timed ?tag name run with
  | r -> Some r
  | exception e ->
      let what = if what = "" then name else what in
      check it (what ^ " raised " ^ Printexc.to_string e) (fun () -> false);
      None

let ran it name ~syscalls ~hops ~secs =
  let ops = syscalls + hops in
  simulated it ~ops ~secs;
  add it (name ^ ".ns_per_op") (secs *. 1e9 /. float_of_int (max 1 ops));
  count it (name ^ ".syscalls") syscalls;
  count it (name ^ ".hops") hops

let broadcast it name run =
  Option.map
    (fun ((r : Core.Broadcast.result), secs) ->
      ran it name ~syscalls:r.syscalls ~hops:r.hops ~secs;
      count it (name ^ ".sends") r.sends;
      count it (name ^ ".drops") r.drops;
      check it (name ^ ".all_reached") (fun () -> Core.Broadcast.all_reached r);
      r)
    (protocol it name run)

let bpaths_checks it ~n (r : Core.Broadcast.result) =
  check it "bpaths.syscalls_eq_n" (fun () -> r.syscalls = n);
  check it "bpaths.time_bound" (fun () ->
      r.time <= float_of_int (1 + log2_ceil n))

(* The link (0, first neighbour) fails at t=0.5, after the root's sends
   but before every delivery, and returns at t=3.0, inside the first
   backoff delay: the recovery layer must retransmit to heal it. *)
let heal_plan g =
  let v = List.hd (Netgraph.Graph.neighbors g 0) in
  [
    Hardware.Fault_plan.Link_set { at = 0.5; u = 0; v; up = false };
    Hardware.Fault_plan.Link_set { at = 3.0; u = 0; v; up = true };
  ]

let recover_counts it (retransmits, restarts) =
  count it "recover.retransmits" retransmits;
  count it "recover.restarts" restarts

(* -- workloads --------------------------------------------------------- *)

(* bcast-large: uncached setup, then branching paths, flooding and the
   healing broadcast on the same 2^16-node graph. *)
let bcast_large ~seed it =
  let n = 65536 in
  let before = Compile.Cache.stats () in
  let g, labels, routes = setup_bpaths it ~seed ~n in
  check_setup_uncached it ~before;
  Option.iter (bpaths_checks it ~n)
    (broadcast it "bpaths" (fun () ->
         Core.Branching_paths.run ~precomputed:labels ~routes ~graph:g ~root:0 ()));
  ignore
    (broadcast it "flood" (fun () -> Core.Flooding.run ~graph:g ~root:0 ())
      : Core.Broadcast.result option);
  (* the recovery counters are only published through a registry *)
  let registry = Hardware.Registry.create () in
  let config =
    {
      (Core.Broadcast.default_config ()) with
      registry = Some registry;
      chaos = Some (heal_plan g);
      recover = Some (Hardware.Recover.default ~n);
    }
  in
  ignore
    (broadcast it "heal" (fun () ->
         Core.Branching_paths.run ~config ~precomputed:labels ~graph:g ~root:0 ())
      : Core.Broadcast.result option);
  recover_counts it (Hardware.Recover.counters (Some registry));
  g

(* elect-maint: leader election, then 4-origin maintenance over a
   preseeded database, on one 2^15-node graph. *)
let elect_maint ~seed it =
  let n = 32768 in
  let before = Compile.Cache.stats () in
  let g = build_graph it ~seed ~n in
  check_setup_uncached it ~before;
  Option.iter
    (fun ((o : Core.Election.outcome), secs) ->
      ran it "election" ~syscalls:o.total_syscalls ~hops:o.hops ~secs;
      count it "election.tours" o.tours;
      count it "election.captures" o.captures;
      check it "election.one_leader" (fun () ->
          Array.for_all (fun b -> b = Some o.leader) o.believed_leader);
      check it "election.syscalls_le_6n" (fun () -> o.election_syscalls <= 6 * n))
    (protocol it "election" (fun () -> Core.Election.run ~graph:g ()));
  let params =
    {
      (Core.Topo_maintenance.default_params ()) with
      max_rounds = 2;
      preseed = true;
      origins = Some (List.init 4 (fun i -> i * (n / 4)));
    }
  in
  Option.iter
    (fun ((m : Core.Topo_maintenance.outcome), secs) ->
      ran it "maintenance" ~syscalls:m.syscalls ~hops:m.hops ~secs;
      count it "maintenance.rounds" m.rounds;
      check it "maintenance.converged" (fun () -> m.converged))
    (protocol it "maintenance" (fun () ->
         Core.Topo_maintenance.run ~params ~graph:g ~events:[] ()));
  g

(* chaos-soak: every family over the same schedule indices, then the
   liveness soak over the four families with a recovery layer — the
   loop [Chaos.Runner.soak] runs without a pool, unrolled so each
   [run_schedule] call is timed. *)
let chaos_n = 64
let chaos_schedules = 32

let liveness_families =
  [ Parallel.Sweep.Bpaths; Parallel.Sweep.Flood; Parallel.Sweep.Election;
    Parallel.Sweep.Maintenance ]

let chaos_soak ~seed it =
  let n = chaos_n and k = chaos_schedules in
  (* setup: the soak's artifacts (graph, BFS tree, labelling) built
     from a cold cache *)
  Compile.Cache.clear ();
  let graphs, secs =
    timed "chaos.setup" (fun () ->
        List.init k (fun index ->
            let art =
              Chaos.Schedule.artifact_of
                (Chaos.Schedule.generate ~n ~seed ~index ())
            in
            ignore (Compile.Topology.labelling art : Core.Labels.t);
            Compile.Topology.graph art))
  in
  add it "setup_s" secs;
  let setup_stats = Compile.Cache.stats () in
  check it "setup.cache_miss" (fun () -> setup_stats.misses = k);
  let soak ~liveness family =
    let generate =
      if liveness then Chaos.Schedule.generate_healing
      else Chaos.Schedule.generate
    in
    let fam = Parallel.Sweep.scenario_name family in
    let mode = if liveness then "liveness" else fam in
    for index = 0 to k - 1 do
      let s, _ = timed "chaos.generate" (fun () -> generate ~n ~seed ~index ()) in
      count it "chaos.faults" (List.length s.faults);
      let what =
        Printf.sprintf "chaos.%s%s seed %d index %d" fam
          (if liveness then " liveness" else "") seed index
      in
      match
        protocol ~tag:fam ~what it "chaos.schedule" (fun () ->
            Chaos.Runner.run_schedule ~liveness family s)
      with
      | None -> ()
      | Some ((v : Chaos.Runner.verdict), secs) ->
          it.schedules <- (mode, secs *. 1e3) :: it.schedules;
          simulated it ~ops:(v.syscalls + v.hops) ~secs;
          count it "chaos.syscalls" v.syscalls;
          count it "chaos.hops" v.hops;
          count it "chaos.drops" (v.drops + v.dropped_in_flight);
          recover_counts it (v.retransmits, v.restarts);
          check it (what ^ " oracles") (fun () -> v.ok)
    done
  in
  List.iter (soak ~liveness:false) Parallel.Sweep.all_scenarios;
  List.iter (soak ~liveness:true) liveness_families;
  let st = Compile.Cache.stats () in
  add it "compile.cache.hit_ratio"
    (float_of_int st.hits /. float_of_int (max 1 (st.hits + st.misses)));
  List.hd graphs

(* trace-query: the `trace --stream` path — a branching-paths broadcast
   streamed through a chunked file sink — read back by group-by queries,
   latency percentiles, and a diff against a second stream of the same
   seed. *)
let trace_query ~out ~seed it =
  let n = 65536 in
  let before = Compile.Cache.stats () in
  let g, labels, routes = setup_bpaths it ~seed ~n in
  check_setup_uncached it ~before;
  let stream path =
    let (r, trace, sink), secs =
      timed "trace.stream_run" (fun () ->
          let sink = Sim.Sink.file path in
          ignore
            (Sim.Sink.emit sink
               (Sim.Trace_export.stream_header
                  ~fields:[ ("n", string_of_int n); ("seed", string_of_int seed) ]
                  ())
              : bool);
          let trace = Sim.Trace_export.stream_trace sink in
          let config =
            { (Core.Broadcast.default_config ()) with trace = Some trace }
          in
          let r =
            Core.Branching_paths.run ~config ~precomputed:labels ~routes
              ~graph:g ~root:0 ()
          in
          Sim.Trace_export.stream_finish sink trace;
          Sim.Sink.close sink;
          (r, trace, sink))
    in
    simulated it ~ops:(r.Core.Broadcast.syscalls + r.hops) ~secs;
    let events = Sim.Trace.recorded trace in
    count it "trace.events" events;
    count it "sink.bytes" (Sim.Sink.bytes sink);
    count it "sink.accepted" (Sim.Sink.emitted sink);
    count it "sink.dropped" (Sim.Sink.dropped sink);
    count it "bpaths.syscalls" r.syscalls;
    count it "bpaths.hops" r.hops;
    check it "stream.all_reached" (fun () -> Core.Broadcast.all_reached r);
    check it "stream.no_loss" (fun () -> Sim.Trace.dropped trace = 0);
    (events, secs)
  in
  let path_a = Filename.concat out "trace-a.jsonl" in
  let path_b = Filename.concat out "trace-b.jsonl" in
  let events, stream_a = stream path_a in
  let group_by by =
    let report, secs =
      timed "query.group_by" (fun () -> Query.Engine.run_file ~group_by:by path_a)
    in
    let read = match report with Ok r -> r.Query.Engine.events | Error _ -> 0 in
    check it "query.events_total" (fun () -> read = events);
    (read, secs)
  in
  let read_kind, q_kind = group_by Query.Engine.By_kind in
  let read_link, q_link = group_by Query.Engine.By_link in
  let (lat_read, lat), q_lat =
    timed "query.latency" (fun () ->
        let lat = Query.Latency.create () in
        let read =
          Sim.Trace_import.fold_file path_a ~init:0 ~f:(fun k ~lineno:_ line ->
              match line with
              | Sim.Trace_import.Event e ->
                  Query.Latency.observe lat e;
                  k + 1
              | _ -> k)
        in
        let e2e = Query.Latency.e2e lat in
        ignore
          (List.map (Query.Histo.quantile e2e) [ 0.5; 0.95; 0.99 ] : float list);
        (Result.value ~default:0 read, lat))
  in
  check it "query.latency_deliveries" (fun () ->
      lat_read = events && Query.Histo.count (Query.Latency.e2e lat) = n - 1);
  let _, stream_b = stream path_b in
  let diff, q_diff =
    timed "query.diff" (fun () -> Query.Diff.of_files ~baseline:path_a path_b)
  in
  let diff_read = match diff with Ok (Query.Diff.Identical k) -> 2 * k | _ -> 0 in
  check it "query.diff_identical" (fun () -> diff_read = 2 * events);
  let read = read_kind + read_link + lat_read + diff_read in
  count it "query.events_read" read;
  add it "trace.events_per_s"
    (float_of_int ((2 * events) + read)
    /. (stream_a +. stream_b +. q_kind +. q_link +. q_lat +. q_diff));
  Sys.remove path_a;
  Sys.remove path_b;
  g

(* -- per-layer metric names -------------------------------------------- *)

(* Every per-layer metric, printed on every workload (0 where the
   workload does not exercise the layer).  Must match the [per_layer]
   list of BENCHMARK.json; run.py checks that it does. *)
let setup_spans = [ "graph.build"; "graph.bfs"; "labels.compute"; "compile.routes" ]
let protocol_spans = [ "bpaths"; "flood"; "heal"; "election"; "maintenance" ]
let other_spans =
  [ "chaos.setup"; "chaos.generate"; "chaos.schedule"; "trace.stream_run";
    "query.group_by"; "query.latency"; "query.diff" ]

let families = List.map Parallel.Sweep.scenario_name Parallel.Sweep.all_scenarios

let span_metrics name =
  [ name ^ ".s"; name ^ ".gc.minor_collections"; name ^ ".gc.major_collections" ]

let per_layer_names =
  List.concat_map (fun s -> span_metrics s @ [ s ^ ".minor_words" ]) setup_spans
  @ [ "compile.cache.hit_ratio"; "network.create.s" ]
  @ List.concat_map
      (fun s ->
        span_metrics s
        @ List.map (fun m -> s ^ "." ^ m)
            [ "syscalls"; "hops"; "ns_per_op"; "minor_words"; "promoted_words" ])
      protocol_spans
  @ [ "bpaths.sends"; "flood.sends"; "heal.sends"; "election.tours";
      "election.captures"; "maintenance.rounds"; "recover.retransmits";
      "recover.restarts" ]
  @ List.concat_map span_metrics other_spans
  @ List.map (fun f -> Printf.sprintf "chaos.%s.schedule_ms.p50" f) families
  @ [ "chaos.faults"; "chaos.schedules_per_s"; "chaos.schedule_ms.p50";
      "chaos.schedule_ms.p95"; "sink.bytes"; "sink.accepted"; "sink.dropped";
      "query.events_read"; "trace.events_per_s"; "gc.pause_s";
      "gc.lost_events"; "run_s.untraced"; "run_s.traced"; "trace.overhead_s";
      "spans.unaccounted_s" ]

(* -- statistics -------------------------------------------------------- *)

let median l =
  match List.sort compare l with
  | [] -> 0.
  | s ->
      let a = Array.of_list s in
      let k = Array.length a in
      if k mod 2 = 1 then a.(k / 2) else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.

(* nearest-rank percentile *)
let percentile p l =
  match List.sort compare l with
  | [] -> 0.
  | s ->
      let a = Array.of_list s in
      let k = Array.length a in
      a.(max 0 (min (k - 1) (int_of_float (ceil (p *. float_of_int k)) - 1)))

let median_of name tables = median (List.map (fun tbl -> find tbl name) tables)

(* -- output ------------------------------------------------------------ *)

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let json_string = Sim.Trace_export.json_string

let json_obj fields =
  "{"
  ^ String.concat ", "
      (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields)
  ^ "}"

let duration s = s.stop -. s.start

(* A span's self time: its duration minus the time its children cover
   (children never overlap: one domain, strictly nested calls). *)
let self_time spans =
  let children = Hashtbl.create 1024 in
  List.iter (fun s -> if s.parent >= 0 then bump children s.parent (duration s)) spans;
  fun s -> duration s -. find children s.id

let write_spans path =
  let all = List.rev !spans in
  let self = self_time all in
  let span_json s =
    json_obj
      [
        ("id", string_of_int s.id);
        ("name", json_string s.name);
        ("tag", json_string s.tag);
        ("parent", string_of_int s.parent);
        ("iteration", string_of_int s.iteration);
        ("start_s", json_float s.start);
        ("end_s", json_float s.stop);
        ("self_s", json_float (self s));
        ("minor_words", json_float s.minor_words);
        ("promoted_words", json_float s.promoted_words);
        ("minor_collections", string_of_int s.minor_gcs);
        ("major_collections", string_of_int s.major_gcs);
      ]
  in
  let oc = open_out path in
  output_string oc "[\n";
  List.iteri
    (fun i s ->
      if i > 0 then output_string oc ",\n";
      output_string oc (span_json s))
    all;
  output_string oc "\n]\n";
  close_out oc

(* -- main loop --------------------------------------------------------- *)

let min_iterations = 3

type outcome = {
  index : int;
  traced : bool;
  values : (string, float) Hashtbl.t;
  counts : (string * float) list;  (* sorted by name *)
  run_s : float;
  schedules : (string * float) list;
  attempted : int;
  failures : string list;
  gc_pause_s : float;
  network_create_s : float;
}

(* [Hardware.Network.create] with default handlers on the workload's
   graph, timed per call; repeated on small graphs so the reading is
   not at the clock's resolution. *)
let network_create_probe g =
  let reps = max 1 (65536 / Netgraph.Graph.n g) in
  let t0 = now () in
  for _ = 1 to reps do
    ignore
      (Hardware.Network.create ~engine:(Sim.Engine.create ())
         ~cost:(Hardware.Cost_model.new_model ()) ~graph:g
         ~handlers:(fun _ -> Hardware.Network.default_handlers)
         ()
        : unit Hardware.Network.t)
  done;
  (now () -. t0) /. float_of_int reps

(* One iteration, with every failure — a failed check or an exception
   out of a library — counted rather than fatal.  When [traced], spans
   and GC pauses are recorded, and the network-create probe runs on the
   workload's graph after the iteration's timing ends. *)
let run_iteration ?(index = 0) ~traced workload ~seed =
  let it = new_iter () in
  iteration_no := index;
  open_spans := [];
  (* each iteration starts from a collected heap, as a fresh process
     would, rather than from the previous iteration's garbage *)
  Gc.full_major ();
  if traced then begin
    Runtime_events.resume ();
    tracing := true;
    gc_pause_s := 0.
  end;
  let t0 = now () in
  let graph =
    try
      let g, _ = timed "iteration" (fun () -> workload ~seed it) in
      Some g
    with e ->
      open_spans := [];
      check it ("exception: " ^ Printexc.to_string e) (fun () -> false);
      None
  in
  let wall = now () -. t0 in
  poll_gc ();
  tracing := false;
  if traced then Runtime_events.pause ();
  {
    index;
    traced;
    values = sum_by_name it.values;
    counts = List.sort compare (List.of_seq (Hashtbl.to_seq (sum_by_name it.counts)));
    run_s = wall -. it.check_s;
    schedules = it.schedules;
    attempted = it.attempted;
    failures = it.failures;
    gc_pause_s = !gc_pause_s;
    network_create_s =
      (match graph with
      | Some g when traced -> network_create_probe g
      | _ -> 0.);
  }

(* One traced iteration's layer spans (every span below the iteration
   root), summed by name, and the sum of their self times. *)
let span_values ~iteration =
  let layer = List.filter (fun s -> s.iteration = iteration && s.parent >= 0) !spans in
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun s ->
      bump tbl (s.name ^ ".s") (duration s);
      bump tbl (s.name ^ ".minor_words") s.minor_words;
      bump tbl (s.name ^ ".promoted_words") s.promoted_words;
      bump tbl (s.name ^ ".gc.minor_collections") (float_of_int s.minor_gcs);
      bump tbl (s.name ^ ".gc.major_collections") (float_of_int s.major_gcs))
    layer;
  let self = self_time layer in
  (tbl, List.fold_left (fun acc s -> acc +. self s) 0. layer)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10
  and trace = ref 0 and out = ref "." in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME bcast-large | elect-maint | chaos-soak | trace-query");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "T measure for T seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) run");
      ("--out", Arg.Set_string out, "DIR scratch directory for trace files");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed S --seconds T --trace 0|1 --out DIR";
  let run =
    match !workload with
    | "bcast-large" -> bcast_large
    | "elect-maint" -> elect_maint
    | "chaos-soak" -> chaos_soak
    | "trace-query" -> trace_query ~out:!out
    | w ->
        Printf.eprintf "unknown workload %S\n" w;
        exit 2
  in
  let traced_run = !trace = 1 in
  if traced_run then begin
    Runtime_events.start ();
    Runtime_events.pause ()
  end;
  let start = now () in
  let rec loop i acc =
    if i >= min_iterations + (if traced_run then 1 else 0)
       && now () -. start >= float_of_int !seconds
    then List.rev acc
    else
      (* traced runs alternate: odd iterations traced *)
      let traced = traced_run && i mod 2 = 1 in
      loop (i + 1) (run_iteration ~index:i ~traced run ~seed:!seed :: acc)
  in
  let iters = loop 0 [] in
  let peak_heap_mb =
    float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8))
    /. 1048576.
  in
  let first = List.hd iters in
  let same_counts = List.for_all (fun o -> o.counts = first.counts) iters in
  (* The traced run also checks a held-out seed, untimed: it must pass
     every check and move the counts. *)
  let heldout_seed = !seed + 1_000_003 in
  let held =
    if traced_run then Some (run_iteration ~traced:false run ~seed:heldout_seed)
    else None
  in
  let attempted =
    List.fold_left (fun a o -> a + o.attempted) 0 iters
    + 1
    + match held with Some h -> h.attempted + 1 | None -> 0
  in
  let failures =
    List.concat_map (fun o -> o.failures) iters
    @ (if same_counts then [] else [ "counts differ between runs of one seed" ])
    @
    match held with
    | None -> []
    | Some h ->
        List.map (fun f -> "held-out " ^ f) h.failures
        @ if h.counts <> first.counts then []
          else [ "held-out seed gives the same counts" ]
  in
  let untraced, traced = List.partition (fun o -> not o.traced) iters in
  let run_s_untraced = median (List.map (fun o -> o.run_s) untraced) in
  let metrics =
    if not traced_run then
      let tables = List.map (fun o -> o.values) untraced in
      [
        ("setup_s", median_of "setup_s" tables);
        ("run_s", run_s_untraced);
        ("sim_ops_per_s",
         median
           (List.map
              (fun tbl -> find tbl "sim.ops" /. Float.max 1e-9 (find tbl "sim.s"))
              tables));
        ("peak_heap_mb", peak_heap_mb);
      ]
    else begin
      let tables =
        List.map
          (fun o ->
            let tbl, self_sum = span_values ~iteration:o.index in
            Hashtbl.iter (Hashtbl.replace tbl) o.values;
            List.iter (fun (k, v) -> Hashtbl.replace tbl k v) o.counts;
            Hashtbl.replace tbl "gc.pause_s" o.gc_pause_s;
            Hashtbl.replace tbl "run_s.traced" o.run_s;
            Hashtbl.replace tbl "spans.unaccounted_s" (o.run_s -. self_sum);
            Hashtbl.replace tbl "network.create.s" o.network_create_s;
            tbl)
          traced
      in
      let run_s_traced = median (List.map (fun o -> o.run_s) traced) in
      let schedules = List.concat_map (fun o -> o.schedules) traced in
      let sched_ms = List.map snd schedules in
      let fixed =
        [
          ("run_s.untraced", run_s_untraced);
          ("run_s.traced", run_s_traced);
          ("trace.overhead_s", run_s_traced -. run_s_untraced);
          ("gc.lost_events", float_of_int !gc_lost_events);
          ("chaos.schedule_ms.p50", median sched_ms);
          ("chaos.schedule_ms.p95", percentile 0.95 sched_ms);
          ("chaos.schedules_per_s",
           if sched_ms = [] then 0.
           else
             float_of_int (List.length sched_ms)
             /. List.fold_left (fun a o -> a +. o.run_s) 0. traced);
        ]
        @ List.map
            (fun f ->
              ( Printf.sprintf "chaos.%s.schedule_ms.p50" f,
                median
                  (List.filter_map
                     (fun (fam, ms) -> if fam = f then Some ms else None)
                     schedules) ))
            families
      in
      List.map
        (fun name ->
          match List.assoc_opt name fixed with
          | Some v -> (name, v)
          | None -> (name, median_of name tables))
        per_layer_names
    end
  in
  if traced_run then write_spans (Filename.concat !out
    (Printf.sprintf "spans-%s-seed%d.json" !workload !seed));
  let counts_json l =
    json_obj (List.map (fun (k, v) -> (k, json_float v)) l)
  in
  print_endline
    (json_obj
       [
         ("iterations", string_of_int (List.length iters));
         ("traced_iterations", string_of_int (List.length traced));
         ("counts", counts_json first.counts);
         ("run_s_iterations",
          "["
          ^ String.concat ", "
              (List.map (fun o -> json_float o.run_s) iters)
          ^ "]");
         ("heldout_seed", string_of_int heldout_seed);
         ("heldout_counts",
          match held with Some h -> counts_json h.counts | None -> "null");
         ("failures",
          "[" ^ String.concat ", " (List.map json_string failures) ^ "]");
         ("attempted", string_of_int attempted);
         ("failed", string_of_int (List.length failures));
         ("metrics", json_obj (List.map (fun (k, v) -> (k, json_float v)) metrics));
       ])
