(* The experiment harness.

   - `main.exe`                 : regenerate every experiment table (E1-E9)
                                  and run the bechamel timing suite.
   - `main.exe e4 e6 ...`       : regenerate the named experiments only.
   - `main.exe figures`         : render the paper's Figures 1-5.
   - `main.exe bench [FLAGS]`   : the bechamel timing suite only.

   Bench flags:
   - `--smoke`      : tiny quota and n=64 only — a fast CI sanity check.
   - `--json`       : additionally write one BENCH_<n>.json per scaling
                      size (name, ns/run, plus the semantic system-call /
                      hop / drop counts of each workload, the simulated
                      latency percentiles of each scenario, n, git rev)
                      into the current directory, so successive PRs
                      accumulate a perf trajectory to regress against.
   - `--monitors`   : after timing, re-run one checked execution per
                      size with the paper-bound monitors in fail mode
                      (exit 3 on any violated bound).
   - `--profile`    : one traced, untimed run of each scaling workload
                      through the causal critical-path profiler
                      (lib/analysis); the path summary is printed and,
                      with `--json`, lands in BENCH_<n>.json.
   - `--sizes LIST` : comma-separated scaling sizes (default
                      64,256,1024,4096).  Above 8192 every scenario
                      still runs — election moves to the random
                      benchmark graph and maintenance to k-origin
                      rounds (the scale forms are in the row names),
                      timed one-shot instead of through bechamel.
   - `--scenarios L` : comma-separated subset of the one-shot scenario
                      keys (flood,bpaths,election,maintenance,setup);
                      only consulted above the one-shot threshold —
                      `make bench-million` uses it to keep the 10^6
                      smoke to broadcast + election.
   - `--out-dir DIR`: where the non-regression droppings (TRACE_<n>.jsonl,
                      OBS_STREAM_<n>.jsonl) land (default `_artifacts`,
                      created on demand).  BENCH_<n>.json stays in the
                      working directory: it is the committed perf
                      trajectory, not a dropping.
   - `--mem-budget B`: after each size, assert the process heap
                      high-water mark stays under 64 MiB + B*n bytes
                      (exit 7 otherwise) — the O(n)-memory gate the
                      scale sizes run under in CI.
   - `--check FILE` : regression gate — no timing at all.  Diff the
                      BENCH_<n>.json next to the baseline FILE against
                      that baseline and exit 4 if any benchmark got
                      slower by more than the tolerance, or if the
                      baseline's schema_version is incompatible.
                      Repeatable.
   - `--tolerance P`: allowed slow-down for `--check`, in percent
                      (default 15).
   - `--stream`     : after timing, stream one branching-paths
                      broadcast per size through a chunked file sink
                      to TRACE_<n>.jsonl — the bounded-memory export
                      path, exercised under `--mem-budget` at the
                      scale sizes.
   - `--obs-overhead`: self-measure the observability tax per size:
                      each broadcast scenario runs traces-off,
                      disabled-instruments-attached, and
                      streaming-to-file-sink; the ratios land in the
                      BENCH json and exceeding the declared budgets
                      (disabled <= 1.05x, streaming <= the constant
                      below) exits 8.

   The tables reproduce the paper's claims (see DESIGN.md section 3 and
   EXPERIMENTS.md); the bechamel suite times the implementations
   themselves — the classic per-experiment microbenchmarks plus a
   scaling suite (broadcast / election / maintenance at n = 64 .. 4096)
   that exercises the switching-fabric fast path. *)

open Bechamel

let default_sizes = [ 64; 256; 1024; 4096 ]

(* Above this size bechamel's quota-driven looping is the wrong tool —
   a single scenario execution takes seconds to minutes — so scenarios
   are timed one-shot (min of a few runs, wall clock) instead of being
   skipped.  The fixed scenarios also switch to their scale forms:
   election runs on the random benchmark graph (a ring election is
   Theta(n^2) hops by construction, not by implementation) and
   maintenance runs k-origin rounds whose convergence check is
   dissemination in Theta(nk) (see Topo_maintenance.origins).  Loud,
   not silent: the scale form is part of the benchmark row name. *)
let scale_threshold = 8192
let one_shot ~n = n > scale_threshold

(* Where the non-regression droppings (streamed traces, obs-overhead
   spools) land; BENCH_<n>.json stays in the working directory. *)
let out_dir = ref "_artifacts"

let in_out_dir file =
  if not (Sys.file_exists !out_dir) then Sys.mkdir !out_dir 0o755;
  Filename.concat !out_dir file

(* -- compiled-topology artifacts -------------------------------------- *)

(* Every scenario graph/tree/labelling below comes from the process
   cache, so repeated bechamel iterations (and the semantic, profile
   and monitor sections timing the same scenario) share one artifact
   and ns_per_run measures algorithm execution, not reconstruction.
   Setup cost itself stays tracked by the explicit setup/ group. *)
let bench_art ~n = Compile.Cache.random_connected ~seed:42 ~n ~extra_edges:(n / 2)
let maintenance_art ~n = Compile.Cache.random_connected ~seed:1 ~n ~extra_edges:(n / 2)
let ring_graph ~n = Compile.Topology.graph (Compile.Cache.ring ~n)

let bpaths_precomputed art =
  ( Compile.Topology.labelling art,
    Some (Compile.Topology.routes art) )

(* -- the fixed scenarios, in size-appropriate form -------------------- *)

(* Below the one-shot threshold the historical rows are kept
   byte-for-byte (ring election, full all-nodes maintenance at 1-2
   rounds).  Above it the same protocols run in the forms that stay
   near-linear: election on the benchmark random graph, and
   maintenance with [scale_origin_count] evenly spaced origins over a
   preseeded database — every node still records link state, merges
   and relays; convergence means every node holds each origin's
   freshest view. *)
let scale_origin_count = 4

let scale_origins ~n =
  List.init scale_origin_count (fun i -> i * (n / scale_origin_count))

let election_name ~n =
  if one_shot ~n then Printf.sprintf "e6/election-rand-n%d" n
  else Printf.sprintf "e6/election-ring%d" n

let election_graph ~n =
  if one_shot ~n then Compile.Topology.graph (bench_art ~n) else ring_graph ~n

let maintenance_rounds ~n = if n >= 1024 then 1 else 2

let maintenance_name ~n =
  if one_shot ~n then
    Printf.sprintf "e5/maintenance-origins%d-n%d" scale_origin_count n
  else Printf.sprintf "e5/maintenance-%d-rounds-n%d" (maintenance_rounds ~n) n

let maintenance_params ~n =
  if one_shot ~n then
    {
      (Core.Topo_maintenance.default_params ()) with
      max_rounds = 2;
      preseed = true;
      origins = Some (scale_origins ~n);
    }
  else
    {
      (Core.Topo_maintenance.default_params ()) with
      max_rounds = maintenance_rounds ~n;
    }

(* -- the recovery-overhead scenario ----------------------------------- *)

(* A branching-paths broadcast that loses one subtree to a mid-wave
   link cut and must heal it through the DESIGN.md §16 echo/retransmit
   layer: the link (root, first neighbour) goes down at t=0.5 — after
   the root's sends but before every delivery completes — and comes
   back at t=3.0, well inside the first backoff delay, so one
   retransmission completes the broadcast.  It goes only down the chain
   whose first hop never echoed, so the run costs exactly 2n+4 syscalls
   and 2(n-1) hops: the fault-free 2n-1, one watchdog expiry and four
   link-change activations, with no node delivered twice.  The
   [recover.*] counters this publishes are deterministic functions of
   (n, seed 42) and are held exactly by `bench --check`. *)
let recover_name ~n = Printf.sprintf "recover/bpaths-heal-n%d" n

let recover_plan g =
  let u = 0 in
  let v = List.hd (Netgraph.Graph.neighbors g 0) in
  [
    Hardware.Fault_plan.Link_set { at = 0.5; u; v; up = false };
    Hardware.Fault_plan.Link_set { at = 3.0; u; v; up = true };
  ]

let recover_run ~n ~graph ~labelling ~routes reg =
  let config =
    {
      (Core.Broadcast.default_config ()) with
      registry = reg;
      chaos = Some (recover_plan graph);
      recover = Some (Hardware.Recover.default ~n);
    }
  in
  ignore
    (Core.Branching_paths.run ~config ~precomputed:labelling ?routes ~graph
       ~root:0 ()
      : Core.Broadcast.result)

(* -- classic per-experiment microbenchmarks (fixed small sizes) ------- *)

let classic_tests () =
  let g64 = Compile.Topology.graph (bench_art ~n:64) in
  let ring64 = ring_graph ~n:64 in
  let tree_for_labels = Netgraph.Spanning.bfs_tree g64 ~root:0 in
  let fib_model = { Core.Optimal_tree.c = 1.0; p = 1.0 } in
  let shape = Core.Optimal_tree.optimal_tree fib_model ~n:64 in
  let spec = Core.Sensitive.sum_mod 97 in
  let binary10 =
    Netgraph.Spanning.bfs_tree
      (Netgraph.Builders.complete_binary_tree ~depth:10)
      ~root:0
  in
  [
    (* E2: labelling *)
    Test.make ~name:"e2/labels-n64"
      (Staged.stage (fun () -> Core.Labels.compute tree_for_labels));
    (* E3: lower-bound simulator *)
    Test.make ~name:"e3/one-way-schedule-binary-depth10"
      (Staged.stage (fun () ->
           Core.Lower_bound.simulate ~tree:binary10
             ~strategy:Core.Lower_bound.eager_single_edge_strategy
             ~max_rounds:100));
    (* E6: the classical baseline *)
    Test.make ~name:"e6/hirschberg-sinclair-ring64"
      (Staged.stage (fun () ->
           Core.Election_baselines.run_hirschberg_sinclair ~n:64 ()));
    (* E7/E8: the recursion *)
    Test.make ~name:"e7/s-of-t-fib-n4096"
      (Staged.stage (fun () ->
           Core.Optimal_tree.optimal_time fib_model ~n:4096));
    Test.make ~name:"e8/optimal-tree-n256"
      (Staged.stage (fun () ->
           Core.Optimal_tree.optimal_tree { Core.Optimal_tree.c = 4.0; p = 1.0 }
             ~n:256));
    (* E9: convergecast on hardware *)
    Test.make ~name:"e9/convergecast-n64"
      (Staged.stage (fun () ->
           Core.Convergecast.run ~params:fib_model ~shape ~spec ()));
    (* E1 variants not in the scaling sweep *)
    Test.make ~name:"e1/dfs-broadcast-n64"
      (Staged.stage (fun () -> Core.Dfs_broadcast.run ~graph:g64 ~root:0 ()));
    Test.make ~name:"e6/election-ring64"
      (Staged.stage (fun () -> Core.Election.run ~graph:ring64 ()));
    (* A1: the multicast ablation *)
    Test.make ~name:"a1/bpaths-no-multicast-star64"
      (Staged.stage
         (let star64 = Compile.Topology.graph (Compile.Cache.star ~n:64) in
          fun () ->
            Core.Branching_paths.run ~multicast:false ~graph:star64 ~root:0 ()));
    (* A4: general-graph aggregation *)
    Test.make ~name:"a4/aggregate-grid8x8"
      (Staged.stage
         (let grid8 =
            Compile.Topology.graph (Compile.Cache.grid ~rows:8 ~cols:8)
          in
          fun () -> Core.Aggregate.run ~c:1.0 ~p:1.0 ~graph:grid8 ~spec ()));
  ]

(* -- the scaling suite: broadcast / election / maintenance ------------ *)

(* One bechamel test list per size [n], exercising the packet fast path
   on seed-equivalent graphs: the same generator and seed as the seed
   repo's `random_connected ~seed:42 ~n:64 ~extra_edges:32`, scaled so
   extra_edges = n/2.  Scenario graphs, labellings and route tables
   come from the compiled-topology cache; the branching-paths workload
   runs on the shared artifact, so its ns/run is algorithm execution.
   The setup/ group times the (cached-away) setup pipeline itself. *)
let scaling_tests ~n =
  let art = bench_art ~n in
  let g = Compile.Topology.graph art in
  let labelling, routes = bpaths_precomputed art in
  let broadcasts =
    [
      Test.make
        ~name:(Printf.sprintf "e1/flooding-broadcast-n%d" n)
        (Staged.stage (fun () -> Core.Flooding.run ~graph:g ~root:0 ()));
      Test.make
        ~name:(Printf.sprintf "e1/branching-paths-broadcast-n%d" n)
        (Staged.stage (fun () ->
             Core.Branching_paths.run ~precomputed:labelling ?routes ~graph:g
               ~root:0 ()));
    ]
  in
  let setup =
    [
      (* the whole per-scenario setup pipeline, uncached: graph
         construction, BFS tree, labelling/decomposition, route table *)
      Test.make
        ~name:(Printf.sprintf "setup/build-graph-n%d" n)
        (Staged.stage (fun () ->
             Netgraph.Builders.random_connected
               (Sim.Rng.create ~seed:42)
               ~n ~extra_edges:(n / 2)));
      Test.make
        ~name:(Printf.sprintf "setup/bfs-labels-n%d" n)
        (Staged.stage (fun () ->
             Core.Labels.compute (Netgraph.Spanning.bfs_tree g ~root:0)));
      Test.make
        ~name:(Printf.sprintf "setup/compile-routes-n%d" n)
        (Staged.stage (fun () -> Compile.Topology.compile_routes labelling g));
    ]
  in
  (* A full maintenance round costs Theta(n) broadcasts of Theta(n)
     system calls each; keep the biggest bechamel sizes to one round so
     the suite stays runnable. Not a silent cap: the round count is in
     the benchmark name. *)
  let maintenance_graph = Compile.Topology.graph (maintenance_art ~n) in
  let election_g = election_graph ~n in
  broadcasts
  @ [
      Test.make ~name:(election_name ~n)
        (Staged.stage (fun () -> Core.Election.run ~graph:election_g ()));
      Test.make ~name:(maintenance_name ~n)
        (Staged.stage (fun () ->
             let params = maintenance_params ~n in
             Core.Topo_maintenance.run ~params ~graph:maintenance_graph
               ~events:[] ()));
      Test.make ~name:(recover_name ~n)
        (Staged.stage (fun () ->
             recover_run ~n ~graph:g ~labelling ~routes None));
    ]
  @ setup

(* -- one-shot timing (sizes above the bechamel threshold) ------------- *)

(* The scenario keys `--scenarios` filters on.  Only the one-shot path
   consults the filter: below the threshold every scenario is cheap
   enough that subsetting would just fragment the baselines. *)
let one_shot_keys =
  [ "flood"; "bpaths"; "election"; "maintenance"; "recover"; "setup" ]

let scenario_enabled ~scenarios key =
  match scenarios with None -> true | Some keys -> List.mem key keys

(* Each scenario runs [one_shot_repeats] times with a metrics registry
   attached — min wall clock becomes the ns_per_run row, the semantic
   counters the workloads row — so the timing and semantic passes that
   are separate under bechamel collapse into one.  The registry is the
   pre-registered-handles fast path; its overhead is noise at the
   seconds scale these sizes run at. *)
let one_shot_repeats ~n = if n <= 65536 then 3 else 1

let one_shot_timed run =
  let reg = Hardware.Registry.create () in
  (* collect the previous run's garbage before the clock starts: the
     --mem-budget gate reads the process high-water mark, which must
     reflect one live scenario, not the sum of unswept predecessors *)
  Gc.full_major ();
  let t0 = Unix.gettimeofday () in
  run reg;
  let wall = Unix.gettimeofday () -. t0 in
  let v name =
    match Hardware.Registry.find_counter reg name with
    | Some c -> Hardware.Registry.counter_value c
    | None -> 0
  in
  ( wall,
    ( v "net.syscalls",
      v "net.hops",
      v "net.drops",
      v "net.dropped_in_flight",
      v "recover.retransmits",
      v "recover.restarts" ) )

(* Returns (timing rows, workload rows) for one size.  Skipped
   scenarios are printed, not silently absent. *)
let one_shot_rows ~scenarios ~n =
  let repeats = one_shot_repeats ~n in
  let art = bench_art ~n in
  let g = Compile.Topology.graph art in
  let labelling, routes = bpaths_precomputed art in
  let runs =
    List.filter_map
      (fun (key, name, run) ->
        if scenario_enabled ~scenarios key then Some (name, run)
        else begin
          Printf.printf "n=%d: %s skipped (--scenarios)\n%!" n name;
          None
        end)
      [
        ( "flood",
          Printf.sprintf "e1/flooding-broadcast-n%d" n,
          fun reg ->
            let config =
              { (Core.Broadcast.default_config ()) with registry = Some reg }
            in
            ignore
              (Core.Flooding.run ~config ~graph:g ~root:0 ()
                : Core.Broadcast.result) );
        ( "bpaths",
          Printf.sprintf "e1/branching-paths-broadcast-n%d" n,
          fun reg ->
            let config =
              { (Core.Broadcast.default_config ()) with registry = Some reg }
            in
            ignore
              (Core.Branching_paths.run ~config ~precomputed:labelling ?routes
                 ~graph:g ~root:0 ()
                : Core.Broadcast.result) );
        ( "election",
          election_name ~n,
          fun reg ->
            ignore
              (Core.Election.run ~registry:reg ~graph:(election_graph ~n) ()
                : Core.Election.outcome) );
        ( "maintenance",
          maintenance_name ~n,
          fun reg ->
            let params = { (maintenance_params ~n) with registry = Some reg } in
            ignore
              (Core.Topo_maintenance.run ~params
                 ~graph:(Compile.Topology.graph (maintenance_art ~n))
                 ~events:[] ()
                : Core.Topo_maintenance.outcome) );
        ( "recover",
          recover_name ~n,
          fun reg -> recover_run ~n ~graph:g ~labelling ~routes (Some reg) );
      ]
  in
  let timed, workloads =
    List.fold_left
      (fun (timed, workloads) (name, run) ->
        let best = ref infinity and counters = ref (0, 0, 0, 0, 0, 0) in
        for _ = 1 to repeats do
          let wall, c = one_shot_timed run in
          if wall < !best then best := wall;
          counters := c
        done;
        ( (name, Some (!best *. 1e9)) :: timed,
          (name, !counters) :: workloads ))
      ([], []) runs
  in
  let setup =
    if not (scenario_enabled ~scenarios "setup") then begin
      Printf.printf "n=%d: setup/ group skipped (--scenarios)\n%!" n;
      []
    end
    else
      List.map
        (fun (name, run) ->
          let best = ref infinity in
          for _ = 1 to repeats do
            let t0 = Unix.gettimeofday () in
            run ();
            let wall = Unix.gettimeofday () -. t0 in
            if wall < !best then best := wall
          done;
          (name, Some (!best *. 1e9)))
        [
          ( Printf.sprintf "setup/build-graph-n%d" n,
            fun () ->
              ignore
                (Netgraph.Builders.random_connected
                   (Sim.Rng.create ~seed:42)
                   ~n ~extra_edges:(n / 2)
                  : Netgraph.Graph.t) );
          ( Printf.sprintf "setup/bfs-labels-n%d" n,
            fun () ->
              ignore
                (Core.Labels.compute (Netgraph.Spanning.bfs_tree g ~root:0)
                  : Core.Labels.t) );
          ( Printf.sprintf "setup/compile-routes-n%d" n,
            fun () -> ignore (Compile.Topology.compile_routes labelling g) );
        ]
  in
  let by_name (a, _) (b, _) = String.compare a b in
  (List.sort by_name (List.rev timed @ setup), List.rev workloads)

(* -- measurement ------------------------------------------------------ *)

let measure ~quota tests =
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) () in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let grouped = Test.make_grouped ~name:"futurenet" tests in
  let raw = Benchmark.all cfg instances grouped in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        match Analyze.OLS.estimates ols with
        | Some (est :: _) -> (name, Some est) :: acc
        | _ -> (name, None) :: acc)
      results []
  in
  List.sort (fun (a, _) (b, _) -> String.compare a b) rows

let print_rows rows =
  Printf.printf "%-45s %15s\n" "benchmark" "ns/run";
  Printf.printf "%s\n" (String.make 61 '-');
  List.iter
    (fun (name, est) ->
      match est with
      | Some est -> Printf.printf "%-45s %15.0f\n" name est
      | None -> Printf.printf "%-45s %15s\n" name "n/a")
    rows;
  flush stdout

(* -- JSON output ------------------------------------------------------ *)

(* The current git revision, read straight from .git so the bench binary
   needs no subprocess machinery. *)
let git_rev () =
  let read_line_of path =
    match open_in path with
    | exception Sys_error _ -> None
    | ic ->
        let line = try Some (String.trim (input_line ic)) with End_of_file -> None in
        close_in ic;
        line
  in
  let rec from_dir dir depth =
    if depth > 8 then None
    else
      let head = Filename.concat dir ".git/HEAD" in
      match read_line_of head with
      | Some line ->
          let prefix = "ref: " in
          if String.length line > String.length prefix
             && String.sub line 0 (String.length prefix) = prefix
          then
            let ref_path =
              String.sub line (String.length prefix)
                (String.length line - String.length prefix)
            in
            read_line_of (Filename.concat dir (Filename.concat ".git" ref_path))
          else Some line
      | None ->
          let parent = Filename.dirname dir in
          if parent = dir then None else from_dir parent (depth + 1)
  in
  Option.value ~default:"unknown" (from_dir (Sys.getcwd ()) 0)

(* One extra, untimed run of each scaling workload with a metrics
   registry attached: a perf trajectory is only interpretable if the
   work done per run is stable, so BENCH_<n>.json also records the
   semantic costs (system calls, hops, drops, mid-link losses) the
   paper bounds. *)
let semantic_rows ~n =
  let art = bench_art ~n in
  let g = Compile.Topology.graph art in
  let labelling, routes = bpaths_precomputed art in
  let counters run =
    let reg = Hardware.Registry.create () in
    run reg;
    let v name =
      match Hardware.Registry.find_counter reg name with
      | Some c -> Hardware.Registry.counter_value c
      | None -> 0
    in
    ( v "net.syscalls",
      v "net.hops",
      v "net.drops",
      v "net.dropped_in_flight",
      v "recover.retransmits",
      v "recover.restarts" )
  in
  let bcast_config reg =
    { (Core.Broadcast.default_config ()) with registry = Some reg }
  in
  let broadcasts =
    [
      ( Printf.sprintf "e1/flooding-broadcast-n%d" n,
        counters (fun reg ->
            ignore
              (Core.Flooding.run ~config:(bcast_config reg) ~graph:g ~root:0 ()
                : Core.Broadcast.result)) );
      ( Printf.sprintf "e1/branching-paths-broadcast-n%d" n,
        counters (fun reg ->
            ignore
              (Core.Branching_paths.run ~config:(bcast_config reg)
                 ~precomputed:labelling ?routes ~graph:g ~root:0 ()
                : Core.Broadcast.result)) );
    ]
  in
  let election_g = election_graph ~n in
  let maintenance_graph = Compile.Topology.graph (maintenance_art ~n) in
  broadcasts
  @ [
      ( election_name ~n,
        counters (fun reg ->
            ignore (Core.Election.run ~registry:reg ~graph:election_g ()
                     : Core.Election.outcome)) );
      ( maintenance_name ~n,
        counters (fun reg ->
            let params = { (maintenance_params ~n) with registry = Some reg } in
            ignore
              (Core.Topo_maintenance.run ~params ~graph:maintenance_graph
                 ~events:[] ()
                : Core.Topo_maintenance.outcome)) );
      ( recover_name ~n,
        counters (fun reg ->
            recover_run ~n ~graph:g ~labelling ~routes (Some reg)) );
    ]

(* -- parallel sweep section (bench --jobs) ---------------------------- *)

(* For each size, run a small replica sweep of three scenarios once
   inline and once through a [--jobs]-wide pool, and record both wall
   clocks, the speedup, and — the number that actually matters — whether
   the per-replica metrics were byte-identical across the two runs.
   Speedup tracks the machine (1.0 on a single-core container);
   [deterministic] must be [true] everywhere, on any machine. *)
let parallel_scenarios =
  [ Parallel.Sweep.Bpaths; Parallel.Sweep.Flood; Parallel.Sweep.Election ]

type parallel_row = {
  pr_name : string;
  pr_wall_1 : float;
  pr_wall_n : float;
  pr_speedup : float;
  pr_deterministic : bool;
}

(* One pool serves all scenarios of a size, so its telemetry summarises
   the whole section.  Pool telemetry is wall-clock and scheduling
   dependent — it is printed and published process-locally, and must
   never leak into metrics_json (the byte-identical-at-any-jobs gate). *)
let parallel_rows ~jobs ~replicas ~n =
  let module S = Parallel.Sweep in
  let row pool sc =
    let s1 = S.run sc ~replicas ~n ~seed:42 () in
    let m1 = S.metrics_json s1 in
    let sn, mn =
      match pool with
      | None -> (s1, m1)
      | Some pool ->
          let s = S.run ~pool sc ~replicas ~n ~seed:42 () in
          (s, S.metrics_json s)
    in
    {
      pr_name = S.scenario_name sc;
      pr_wall_1 = s1.S.wall_s;
      pr_wall_n = sn.S.wall_s;
      pr_speedup = s1.S.wall_s /. Float.max sn.S.wall_s 1e-9;
      pr_deterministic = String.equal m1 mn;
    }
  in
  if jobs <= 1 then (List.map (row None) parallel_scenarios, None)
  else
    Parallel.Pool.with_pool ~jobs (fun pool ->
        let rows = List.map (row (Some pool)) parallel_scenarios in
        let reg = Hardware.Registry.create () in
        Parallel.Pool.publish pool reg;
        (rows, Some (Format.asprintf "%a" Hardware.Registry.pp_summary reg)))

(* When a sweep's metrics diverge between job counts, re-run the
   offending scenarios with ~keep_events:true at jobs=1 and jobs=N and
   hand the first divergent replica's event streams to Query.Diff: the
   exit-5 report names the event index, the charged node and the
   binding-predecessor chain instead of just a boolean. *)
let localise_parallel_divergence ~jobs ~replicas ~n scenarios =
  let module S = Parallel.Sweep in
  List.iter
    (fun sc ->
      let s1 = S.run sc ~replicas ~n ~seed:42 ~keep_events:true () in
      let sn =
        Parallel.Pool.with_pool ~jobs (fun pool ->
            S.run ~pool sc ~replicas ~n ~seed:42 ~keep_events:true ())
      in
      let count = min (Array.length s1.S.events) (Array.length sn.S.events) in
      let rec first i =
        if i >= count then None
        else if s1.S.events.(i) <> sn.S.events.(i) then Some i
        else first (i + 1)
      in
      match first 0 with
      | None ->
          Printf.eprintf
            "  %s: replica traces replayed identically on the keep-events \
             re-run — the metrics divergence did not reproduce\n"
            (S.scenario_name sc)
      | Some i ->
          let outcome =
            Query.Diff.of_events ~baseline:s1.S.events.(i) sn.S.events.(i)
          in
          Printf.eprintf "  %s, replica %d:\n" (S.scenario_name sc) i;
          List.iter
            (fun l -> if l <> "" then Printf.eprintf "    %s\n" l)
            (String.split_on_char '\n'
               (Query.Diff.report ~baseline:"jobs=1"
                  ~candidate:(Printf.sprintf "jobs=%d" jobs)
                  outcome)))
    scenarios

let print_parallel_rows ~jobs ~replicas rows =
  Printf.printf "%-20s %12s %12s %9s  %s   (%d replicas, %d jobs)\n" "sweep"
    "jobs=1 (s)" "jobs=N (s)" "speedup" "deterministic" replicas jobs;
  List.iter
    (fun r ->
      Printf.printf "%-20s %12.4f %12.4f %8.2fx  %s\n" r.pr_name r.pr_wall_1
        r.pr_wall_n r.pr_speedup
        (if r.pr_deterministic then "yes" else "NO — METRICS DIVERGED"))
    rows;
  flush stdout

(* -- causal critical-path profiles (bench --profile) ------------------ *)

module CP = Analysis.Critical_path
module Json = Sim.Json

(* One traced, untimed run of each scaling workload through the
   profiler, so BENCH_<n>.json tracks the *shape* of every execution
   (critical-path length, C/P split) next to its wall-clock cost.  The
   recorder is capped: a maintenance run at n=4096 emits tens of
   millions of events, and a truncated profile is flagged in the output
   rather than silently wrong. *)
let profile_capacity = 1_000_000

let profile_rows ~n =
  let cost = Hardware.Cost_model.new_model () in
  let art = bench_art ~n in
  let g = Compile.Topology.graph art in
  let labelling, routes = bpaths_precomputed art in
  let profiled run =
    let trace = Sim.Trace.create ~capacity:profile_capacity () in
    run trace;
    Analysis.Critical_path.compute ~cost (Analysis.Event_dag.of_trace trace)
  in
  let bcast_config trace =
    { (Core.Broadcast.default_config ()) with trace = Some trace }
  in
  let broadcasts =
    [
      ( Printf.sprintf "e1/flooding-broadcast-n%d" n,
        profiled (fun trace ->
            ignore
              (Core.Flooding.run ~config:(bcast_config trace) ~graph:g ~root:0
                 ()
                : Core.Broadcast.result)) );
      ( Printf.sprintf "e1/branching-paths-broadcast-n%d" n,
        profiled (fun trace ->
            ignore
              (Core.Branching_paths.run ~config:(bcast_config trace)
                 ~precomputed:labelling ?routes ~graph:g ~root:0 ()
                : Core.Broadcast.result)) );
    ]
  in
  let election_g = election_graph ~n in
  let maintenance_graph = Compile.Topology.graph (maintenance_art ~n) in
  broadcasts
  @ [
      ( election_name ~n,
        profiled (fun trace ->
            ignore (Core.Election.run ~trace ~graph:election_g ()
                     : Core.Election.outcome)) );
      ( maintenance_name ~n,
        profiled (fun trace ->
            let params = { (maintenance_params ~n) with trace = Some trace } in
            ignore
              (Core.Topo_maintenance.run ~params ~graph:maintenance_graph
                 ~events:[] ()
                : Core.Topo_maintenance.outcome)) );
    ]

let print_profiles profiles =
  List.iter
    (fun (name, cp) ->
      match cp with
      | Some (cp : CP.t) ->
          Printf.printf "%-45s span %10.4g  %5d steps = %dP + %dC + %d sends%s\n"
            name cp.CP.span (List.length cp.CP.steps)
            (cp.CP.deliveries + cp.CP.activations)
            cp.CP.hops cp.CP.sends
            (if cp.CP.truncated > 0 then
               Printf.sprintf "  [truncated: %d events lost]" cp.CP.truncated
             else "")
      | None -> Printf.printf "%-45s (no NCU activation in trace)\n" name)
    profiles;
  flush stdout

(* -- simulated latency percentiles (bench --json) --------------------- *)

(* One untimed run of each scaling workload with a streaming latency
   aggregator attached: the events are priced (per-hop / delivery /
   end-to-end percentiles in the paper's C/P terms) as they are
   recorded and never materialised, so this section works at the scale
   sizes under --mem-budget.  Simulated time is deterministic, which
   is why --check can hold these values to exact equality while
   ns_per_run only gets a tolerance. *)
(* OCaml 5.1 never returns small-block pool memory to the OS, and the
   --mem-budget gate reads the process heap high-water mark — which
   only ever grows.  A traced 10^6-event run must therefore not let
   its churn outrun the incremental major GC: force a full collection
   every 2^17 offers so churn reuses swept pool slots instead of
   mapping fresh pools.  Untimed sections only. *)
let gc_paced ?(mask = 0x1FFFF) f =
  let tick = ref 0 in
  fun e ->
    incr tick;
    if !tick land mask = 0 then Gc.full_major ();
    f e

(* At the one-shot sizes a full major walks a multi-GiB live heap, so
   pacing every 2^17 events would spend more time collecting than
   simulating; stretch the interval with n — the churn window grows to
   O(n) bytes, which the B*n budget already covers. *)
let gc_mask ~n =
  let rec pow2 m = if m >= n then m else pow2 (m * 2) in
  pow2 0x20000 - 1

let latency_rows ~scenarios ~n =
  let art = bench_art ~n in
  let g = Compile.Topology.graph art in
  let labelling, routes = bpaths_precomputed art in
  let priced run =
    let lat = Query.Latency.create () in
    let trace =
      Sim.Trace.streaming
        ~consumer:
          (gc_paced ~mask:(gc_mask ~n) (fun e ->
               Query.Latency.observe lat e;
               true))
        ()
    in
    Gc.full_major ();
    run trace;
    lat
  in
  let bcast_config trace =
    { (Core.Broadcast.default_config ()) with trace = Some trace }
  in
  let enabled key = scenario_enabled ~scenarios key || not (one_shot ~n) in
  let broadcasts =
    (if enabled "flood" then
       [
         ( Printf.sprintf "e1/flooding-broadcast-n%d" n,
           priced (fun trace ->
               ignore
                 (Core.Flooding.run ~config:(bcast_config trace) ~graph:g
                    ~root:0 ()
                   : Core.Broadcast.result)) );
       ]
     else [])
    @
    if enabled "bpaths" then
      [
        ( Printf.sprintf "e1/branching-paths-broadcast-n%d" n,
          priced (fun trace ->
              ignore
                (Core.Branching_paths.run ~config:(bcast_config trace)
                   ~precomputed:labelling ?routes ~graph:g ~root:0 ()
                  : Core.Broadcast.result)) );
      ]
    else []
  in
  let fixed =
    (if enabled "election" then
       [
         ( election_name ~n,
           priced (fun trace ->
               ignore
                 (Core.Election.run ~trace ~graph:(election_graph ~n) ()
                   : Core.Election.outcome)) );
       ]
     else [])
    @
    if enabled "maintenance" then
      [
        ( maintenance_name ~n,
          priced (fun trace ->
              let params = { (maintenance_params ~n) with trace = Some trace } in
              ignore
                (Core.Topo_maintenance.run ~params
                   ~graph:(Compile.Topology.graph (maintenance_art ~n))
                   ~events:[] ()
                  : Core.Topo_maintenance.outcome)) );
      ]
    else []
  in
  broadcasts @ fixed

let print_latency_rows rows =
  List.iter
    (fun (name, lat) ->
      Printf.printf "%s\n" name;
      Format.printf "%a" Query.Latency.pp lat)
    rows;
  flush stdout

(* -- observability overhead gate (bench --obs-overhead) --------------- *)

(* Three variants of each broadcast scenario, timed min-of-k in
   round-robin order (so clock drift hits all variants alike):

   - off      : no trace, no registry — the production fast path;
   - disabled : a disabled trace and registry attached — must cost the
                same as off, or PR 1's zero-allocation disabled-path
                guarantee has regressed (DESIGN.md section 7);
   - stream   : every event serialised through a chunked file sink —
                the full streaming-export tax.

   The budgets are the declaration CI enforces (exit 8).  The
   disabled budget is tight by design; the streaming budget is loose
   because a microsecond-scale broadcast pays ~0.5us of Printf per
   event, which is the cost of exporting at all, not a regression
   surface — the json records the measured ratio either way. *)
let obs_budget_disabled = 1.05
let obs_budget_stream = 40.0

type obs_row = {
  ob_name : string;
  ob_off_s : float;
  ob_disabled_s : float;
  ob_stream_s : float;
  ob_events : int;
  ob_bytes : int;
}

let obs_repeats ~n = if n <= 256 then 30 else if n <= 4096 then 10 else 3

(* Min-of-k, round-robin across the variants, one shared warmup lap.
   Each timed sample runs the scenario [iters] times back to back:
   sub-millisecond scenarios jitter ~10% even under min-of-k, which
   would trip the 1.05x disabled-path gate on noise alone, so the
   batch size is calibrated off the warmup lap to put every sample in
   the milliseconds. *)
let time_variants ~repeats fs =
  let warmup =
    Array.map
      (fun f ->
        let t0 = Unix.gettimeofday () in
        f ();
        Unix.gettimeofday () -. t0)
      fs
  in
  let iters =
    (* batch the fastest variant up to ~5 ms per sample, capped so the
       slowest variant's samples stay tractable *)
    let fastest = Array.fold_left Float.min infinity warmup in
    max 1 (min 64 (int_of_float (0.005 /. Float.max fastest 1e-9)))
  in
  let best = Array.make (Array.length fs) infinity in
  for _ = 1 to repeats do
    Array.iteri
      (fun i f ->
        let t0 = Unix.gettimeofday () in
        for _ = 1 to iters do
          f ()
        done;
        let d = (Unix.gettimeofday () -. t0) /. float_of_int iters in
        if d < best.(i) then best.(i) <- d)
      fs
  done;
  best

let obs_overhead_rows ~n =
  let art = bench_art ~n in
  let g = Compile.Topology.graph art in
  let labelling, routes = bpaths_precomputed art in
  let scenarios =
    [
      ( Printf.sprintf "e1/flooding-broadcast-n%d" n,
        fun config ->
          ignore
            (Core.Flooding.run ~config ~graph:g ~root:0 ()
              : Core.Broadcast.result) );
      ( Printf.sprintf "e1/branching-paths-broadcast-n%d" n,
        fun config ->
          ignore
            (Core.Branching_paths.run ~config ~precomputed:labelling ?routes
               ~graph:g ~root:0 ()
              : Core.Broadcast.result) );
    ]
  in
  let stream_path = in_out_dir (Printf.sprintf "OBS_STREAM_%d.jsonl" n) in
  let rows =
    List.map
      (fun (name, run) ->
        let off () = run (Core.Broadcast.default_config ()) in
        let disabled () =
          run
            {
              (Core.Broadcast.default_config ()) with
              trace = Some (Sim.Trace.disabled ());
              registry = Some (Hardware.Registry.disabled ());
            }
        in
        let events = ref 0 and bytes = ref 0 in
        let stream () =
          let sink = Sim.Sink.file stream_path in
          Fun.protect
            ~finally:(fun () -> Sim.Sink.close sink)
            (fun () ->
              ignore (Sim.Sink.emit sink (Sim.Trace_export.stream_header ()));
              let trace = Sim.Trace_export.stream_trace sink in
              run
                {
                  (Core.Broadcast.default_config ()) with
                  trace = Some trace;
                  registry = Some (Hardware.Registry.create ());
                };
              Sim.Trace_export.stream_finish sink trace);
          events := Sim.Sink.emitted sink;
          bytes := Sim.Sink.bytes sink
        in
        let best =
          time_variants ~repeats:(obs_repeats ~n) [| off; disabled; stream |]
        in
        {
          ob_name = name;
          ob_off_s = best.(0);
          ob_disabled_s = best.(1);
          ob_stream_s = best.(2);
          ob_events = !events;
          ob_bytes = !bytes;
        })
      scenarios
  in
  (try Sys.remove stream_path with Sys_error _ -> ());
  rows

let obs_ratio num den = num /. Float.max den 1e-9

let print_obs_rows rows =
  Printf.printf "%-45s %10s %10s %7s %10s %7s %9s %10s\n" "scenario" "off (ms)"
    "disab (ms)" "ratio" "strm (ms)" "ratio" "events" "bytes";
  List.iter
    (fun r ->
      Printf.printf "%-45s %10.4f %10.4f %6.3fx %10.4f %6.2fx %9d %10d\n"
        r.ob_name (r.ob_off_s *. 1e3) (r.ob_disabled_s *. 1e3)
        (obs_ratio r.ob_disabled_s r.ob_off_s)
        (r.ob_stream_s *. 1e3)
        (obs_ratio r.ob_stream_s r.ob_off_s)
        r.ob_events r.ob_bytes)
    rows;
  Printf.printf
    "budgets: disabled <= %.2fx, streaming <= %.0fx (violation exits 8)\n%!"
    obs_budget_disabled obs_budget_stream

let enforce_obs_budget ~n rows =
  let violations =
    List.concat_map
      (fun r ->
        let d = obs_ratio r.ob_disabled_s r.ob_off_s in
        let s = obs_ratio r.ob_stream_s r.ob_off_s in
        (if d > obs_budget_disabled then
           [
             Printf.sprintf "%s: disabled-path ratio %.3f > %.2f" r.ob_name d
               obs_budget_disabled;
           ]
         else [])
        @
        if s > obs_budget_stream then
          [
            Printf.sprintf "%s: streaming ratio %.2f > %.0f" r.ob_name s
              obs_budget_stream;
          ]
        else [])
      rows
  in
  if violations <> [] then begin
    List.iter
      (fun v -> Printf.eprintf "n=%d: observability overhead: %s\n" n v)
      violations;
    exit 8
  end

(* -- streamed trace export (bench --stream) --------------------------- *)

(* One branching-paths broadcast per size through the chunked file
   sink: the bounded-memory export path the scale sizes exercise under
   --mem-budget.  Returns (events, bytes, path). *)
let stream_trace_export ~n =
  let art = bench_art ~n in
  let g = Compile.Topology.graph art in
  let labelling, routes = bpaths_precomputed art in
  let path = in_out_dir (Printf.sprintf "TRACE_%d.jsonl" n) in
  let file = Sim.Sink.file path in
  (* pace the GC from the export path too (see [gc_paced]): the
     serialised lines are pure churn and must not grow the pool set *)
  let sink =
    Sim.Sink.create
      ~emit:(gc_paced ~mask:(gc_mask ~n) (fun line -> Sim.Sink.emit file line))
      ~close:(fun () -> Sim.Sink.close file)
      ()
  in
  Fun.protect
    ~finally:(fun () -> Sim.Sink.close sink)
    (fun () ->
      ignore
        (Sim.Sink.emit sink
           (Sim.Trace_export.stream_header
              ~fields:
                [
                  ("scenario", "\"branching-paths-broadcast\"");
                  ("n", string_of_int n);
                  ("seed", "42");
                  ("root", "0");
                ]
              ()));
      let trace = Sim.Trace_export.stream_trace sink in
      let config =
        { (Core.Broadcast.default_config ()) with trace = Some trace }
      in
      let r =
        Core.Branching_paths.run ~config ~precomputed:labelling ?routes
          ~graph:g ~root:0 ()
      in
      Sim.Trace_export.stream_finish ~time:r.Core.Broadcast.time sink trace);
  (Sim.Sink.emitted file, Sim.Sink.bytes file, path)

(* Flattened per-scenario latency entry: "<dist>_<stat>" keys, NaN
   (empty distribution) rendered as 0 to stay valid JSON. *)
let latency_entry_fields lat =
  let module L = Query.Latency in
  let dist prefix h =
    List.map (fun (k, v) -> (prefix ^ "_" ^ k, v)) (L.dist_fields h)
  in
  [
    ("c", L.c lat);
    ("p", L.p lat);
    ("messages", float_of_int (L.messages lat));
    ("deliveries", float_of_int (L.deliveries lat));
    ("unknown", float_of_int (L.unknown lat));
    ("c_work", L.c_work lat);
    ("p_work", L.p_work lat);
    ("wait", L.wait lat);
  ]
  @ dist "hop" (L.hop lat)
  @ dist "delivery" (L.delivery lat)
  @ dist "e2e" (L.e2e lat)

(* -- streaming BENCH writer (bench --json) ---------------------------- *)

(* BENCH_<n>.json goes through a chunked {!Sim.Sink} and each section
   is written the moment it is produced, instead of accumulating every
   section and dumping the file at the end of the size: by the time
   the per-event sections (latency, streamed traces) run, the timing
   rows are already on disk, so the writer holds O(sink buffer)
   however large the run — the property that lets `--json` ride along
   at n=10^6 under `--mem-budget`.  [peak_heap_bytes] moves to the
   tail for the same reason: it is sampled after the last section and
   so covers all of them. *)
type bench_writer = {
  bw_sink : Sim.Sink.t;
  bw_path : string;
  mutable bw_results : int;
}

let bw_line w line = ignore (Sim.Sink.emit w.bw_sink line : bool)

let bw_open ~n ~rev =
  let path = Printf.sprintf "BENCH_%d.json" n in
  let w = { bw_sink = Sim.Sink.file path; bw_path = path; bw_results = 0 } in
  bw_line w "{";
  bw_line w (Printf.sprintf "  \"n\": %d," n);
  bw_line w
    (Printf.sprintf "  \"schema_version\": %d," Sim.Trace_export.schema_version);
  bw_line w (Printf.sprintf "  \"git_rev\": %s," (Json.quote rev));
  w

(* Every section ends with a comma: the closing [bw_close] field
   (peak_heap_bytes) is always last, so the object stays valid JSON
   whatever subset of sections a run produces. *)
let bw_section w ~header ~footer rows render =
  bw_line w header;
  let total = List.length rows in
  List.iteri
    (fun i row ->
      let sep = if i = total - 1 then "" else "," in
      bw_line w (render row sep))
    rows;
  bw_line w footer

let bw_results w rows =
  w.bw_results <- List.length rows;
  bw_section w ~header:"  \"results\": [" ~footer:"  ]," rows
    (fun (name, est) sep ->
      match est with
      | Some est ->
          Printf.sprintf "    { \"name\": %s, \"ns_per_run\": %.1f }%s"
            (Json.quote name) est sep
      | None ->
          Printf.sprintf "    { \"name\": %s, \"ns_per_run\": null }%s"
            (Json.quote name) sep)

let bw_workloads w rows =
  bw_section w ~header:"  \"workloads\": [" ~footer:"  ]," rows
    (fun (name, (syscalls, hops, drops, dropped_in_flight, retransmits,
                 restarts))
         sep ->
      Printf.sprintf
        "    { \"name\": %s, \"syscalls\": %d, \"hops\": %d, \"drops\": \
         %d, \"dropped_in_flight\": %d, \"retransmits\": %d, \"restarts\": \
         %d }%s"
        (Json.quote name) syscalls hops drops dropped_in_flight retransmits
        restarts sep)

let bw_profile w profiles =
  bw_section w ~header:"  \"profile\": [" ~footer:"  ]," profiles
    (fun (name, cp) sep ->
      match cp with
      | Some (cp : CP.t) ->
          Printf.sprintf
            "    { \"name\": %s, \"span\": %s, \"steps\": %d, \
             \"deliveries\": %d, \"activations\": %d, \"hops\": %d, \
             \"sends\": %d, \"p_time\": %s, \"c_time\": %s, \
             \"queue_wait\": %s, \"fifo_wait\": %s, \"truncated\": \
             %d }%s"
            (Json.quote name) (Json.number cp.CP.span)
            (List.length cp.CP.steps) cp.CP.deliveries cp.CP.activations
            cp.CP.hops cp.CP.sends (Json.number cp.CP.p_time)
            (Json.number cp.CP.c_time) (Json.number cp.CP.queue_wait)
            (Json.number cp.CP.fifo_wait) cp.CP.truncated sep
      | None ->
          Printf.sprintf "    { \"name\": %s, \"span\": null }%s"
            (Json.quote name) sep)

(* keyed "scenario"; the --check latency gate compares them by field *)
let bw_latency w latency =
  bw_section w ~header:"  \"latency\": [" ~footer:"  ]," latency
    (fun (name, lat) sep ->
      let fields =
        String.concat ", "
          (List.map
             (fun (k, v) -> Printf.sprintf "\"%s\": %s" k (Json.number v))
             (latency_entry_fields lat))
      in
      Printf.sprintf "    { \"scenario\": %s, %s }%s" (Json.quote name)
        fields sep)

let bw_parallel w (jobs, replicas, rows) =
  bw_line w "  \"parallel\": {";
  bw_line w (Printf.sprintf "    \"jobs\": %d," jobs);
  bw_line w (Printf.sprintf "    \"replicas\": %d," replicas);
  bw_section w ~header:"    \"results\": [" ~footer:"    ]" rows
    (fun r sep ->
      Printf.sprintf
        "      { \"scenario\": %s, \"wall_s_jobs1\": %.6f, \
         \"wall_s_jobsN\": %.6f, \"speedup\": %.3f, \"deterministic\": %b }%s"
        (Json.quote r.pr_name) r.pr_wall_1 r.pr_wall_n r.pr_speedup
        r.pr_deterministic sep);
  bw_line w "  },"

(* keyed "scenario"; --check reads only the top-level "results" timings *)
let bw_obs w obs =
  bw_section w ~header:"  \"obs_overhead\": [" ~footer:"  ]," obs
    (fun r sep ->
      Printf.sprintf
        "    { \"scenario\": %s, \"off_s\": %.6f, \"disabled_s\": %.6f, \
         \"disabled_ratio\": %.4f, \"stream_s\": %.6f, \"stream_ratio\": \
         %.4f, \"stream_events\": %d, \"stream_bytes\": %d }%s"
        (Json.quote r.ob_name) r.ob_off_s r.ob_disabled_s
        (obs_ratio r.ob_disabled_s r.ob_off_s)
        r.ob_stream_s
        (obs_ratio r.ob_stream_s r.ob_off_s)
        r.ob_events r.ob_bytes sep)

let bw_close w ~peak_heap_bytes =
  bw_line w (Printf.sprintf "  \"peak_heap_bytes\": %d" peak_heap_bytes);
  bw_line w "}";
  Sim.Sink.close w.bw_sink;
  Printf.printf "wrote %s (%d results)\n%!" w.bw_path w.bw_results

(* -- bench regression gate (bench --check) ---------------------------- *)

(* A BENCH file, parsed; [Error] names the file. *)
let read_bench path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | contents ->
      Result.map_error
        (fun msg -> Printf.sprintf "%s: %s" path msg)
        (Json.parse contents)

(* The objects of the top-level array [section], each paired with its
   string [key] field ("name" or "scenario"); an entry without one, or
   a missing section, contributes nothing. *)
let keyed_entries doc ~section ~key =
  match Result.bind (Json.member section doc) Json.to_list with
  | Error _ -> []
  | Ok items ->
      List.filter_map
        (fun obj ->
          Result.to_option
            (Result.map
               (fun k -> (k, obj))
               (Result.bind (Json.member key obj) Json.to_string)))
        items

let number_field obj key =
  Result.to_option (Result.bind (Json.member key obj) Json.to_float)

(* The "results" timings: a row whose ns_per_run is null (the
   un-timed one-shot sizes) is no row. *)
let bench_rows doc =
  List.filter_map
    (fun (name, obj) ->
      Option.map (fun v -> (name, v)) (number_field obj "ns_per_run"))
    (keyed_entries doc ~section:"results" ~key:"name")

(* Entry-by-entry comparison of one keyed section: every baseline entry
   must exist in the current file, and each field of [fields] present
   in the baseline entry must satisfy [same].  A field absent from the
   baseline (a seed written before that counter existed) is skipped,
   not failed, so baselines age gracefully across schema-compatible
   additions; a baseline without the section holds nothing. *)
let check_section ~label ~section ~key ~fields ~same ~show ~baseline_path
    ~current_path baseline current =
  let cur_entries = keyed_entries current ~section ~key in
  List.fold_left
    (fun ok (name, bobj) ->
      match List.assoc_opt name cur_entries with
      | None ->
          Printf.printf "  %-45s MISSING from %s\n" (label ^ name) current_path;
          false
      | Some cobj ->
          let bad =
            List.filter_map
              (fun key ->
                match (number_field bobj key, number_field cobj key) with
                | Some bv, Some cv when same bv cv -> None
                | Some bv, Some cv ->
                    Some (Printf.sprintf "%s %s -> %s" key (show bv) (show cv))
                | Some _, None -> Some (key ^ " missing")
                | None, _ -> None)
              fields
          in
          if bad = [] then begin
            Printf.printf "  %-45s ok\n" (label ^ name);
            ok
          end
          else begin
            Printf.printf "  %-45s DRIFTED vs %s: %s\n" (label ^ name)
              baseline_path (String.concat ", " bad);
            false
          end)
    true
    (keyed_entries baseline ~section ~key)

(* Semantic counters are deterministic functions of (scenario, n,
   seed) — the recover.* tallies included — so the gate holds them to
   exact equality. *)
let check_workloads =
  check_section ~label:"workload/" ~section:"workloads" ~key:"name"
    ~fields:
      [
        "syscalls"; "hops"; "drops"; "dropped_in_flight"; "retransmits";
        "restarts";
      ]
    ~same:Float.equal ~show:(Printf.sprintf "%.0f")

(* Simulated time is a deterministic function of (scenario, n, seed),
   so any latency drift is a semantic change, not noise — unlike
   ns_per_run there is no tolerance.  Exact up to float printing:
   %.12g round-trips these values. *)
let check_latency =
  check_section ~label:"latency/" ~section:"latency" ~key:"scenario"
    ~fields:
      [
        "messages"; "deliveries"; "unknown"; "hop_count"; "hop_p50";
        "hop_p95"; "hop_p99"; "e2e_count"; "e2e_p50"; "e2e_p95"; "e2e_p99";
      ]
    ~same:(fun a b ->
      Float.abs (a -. b)
      <= 1e-9 *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b)))
    ~show:Json.number

let int_field doc key =
  Result.to_option (Result.bind (Json.member key doc) Json.to_int)

(* A baseline from another schema generation would diff spuriously
   (renamed sections, re-keyed entries); refuse it with a pointed
   error instead.  Baselines predating the field count as version 1. *)
let check_schema ~path doc =
  let found = Option.value ~default:1 (int_field doc "schema_version") in
  let want = Sim.Trace_export.schema_version in
  if found = want then true
  else begin
    Printf.eprintf
      "bench check: %s has schema_version %d but this binary writes %d — \
       re-baseline it (re-run `bench --json` and commit the new seed file) \
       instead of comparing across schemas\n"
      path found want;
    false
  end

(* Diff the BENCH_<n>.json sitting next to [baseline_path] against that
   baseline.  Pure file comparison — nothing is re-timed — so the gate
   is deterministic on any machine.  A benchmark missing from the
   current file is a failure: renames must update the baseline. *)
let check_baseline ~tolerance baseline_path =
  let fail msg =
    Printf.eprintf "bench check: %s\n" msg;
    false
  in
  match read_bench baseline_path with
  | Error msg -> fail msg
  | Ok baseline -> (
      if not (check_schema ~path:baseline_path baseline) then false
      else
      match int_field baseline "n" with
      | None -> fail (baseline_path ^ " has no \"n\" field")
      | Some n -> (
          let current_path =
            Filename.concat
              (Filename.dirname baseline_path)
              (Printf.sprintf "BENCH_%d.json" n)
          in
          match read_bench current_path with
          | Error msg -> fail msg
          | Ok current ->
              let rows = bench_rows baseline in
              let current_rows = bench_rows current in
              Printf.printf "\n-- bench check: %s vs %s (tolerance %g%%) --\n"
                current_path baseline_path tolerance;
              if rows = [] then fail ("no benchmarks in " ^ baseline_path)
              else
                let ns_ok =
                  List.fold_left
                    (fun ok (name, bv) ->
                      match List.assoc_opt name current_rows with
                      | None ->
                          Printf.printf "  %-45s MISSING from %s\n" name
                            current_path;
                          false
                      | Some cv ->
                          let delta = (cv -. bv) /. bv *. 100.0 in
                          let regressed =
                            cv > bv *. (1.0 +. (tolerance /. 100.0))
                          in
                          Printf.printf
                            "  %-45s %12.0f -> %12.0f  %+7.1f%%  %s\n" name bv
                            cv delta
                            (if regressed then "REGRESSION" else "ok");
                          ok && not regressed)
                    true rows
                in
                let lat_ok =
                  check_latency ~baseline_path ~current_path baseline current
                in
                let wl_ok =
                  check_workloads ~baseline_path ~current_path baseline current
                in
                ns_ok && lat_ok && wl_ok))

(* -- memory accounting (bench --mem-budget) --------------------------- *)

(* [top_heap_words] is the high-water mark of the major heap over the
   whole process, so with sizes run in ascending order the reading
   after size [n] is the peak over all sizes <= n — still O(n) iff
   every per-size structure is.  The budget is [mem_base + c*n] bytes:
   a flat allowance for the runtime, bechamel and the binary itself,
   plus a caller-chosen per-node constant.  Exceeding it exits 7. *)
let peak_heap_bytes () =
  (Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)

let mem_base = 64 * 1024 * 1024

let enforce_mem_budget ~n ~budget peak =
  let limit = mem_base + (budget * n) in
  Printf.printf "n=%d: peak heap %d bytes (%.1f MiB), budget %d (base %d + %d/node)\n%!"
    n peak
    (float_of_int peak /. 1024.0 /. 1024.0)
    limit mem_base budget;
  if peak > limit then begin
    Printf.eprintf
      "n=%d: peak heap %d bytes exceeds O(n) budget %d (base %d + %d bytes/node)\n"
      n peak limit mem_base budget;
    exit 7
  end

(* One checked execution per size: the paper-bound monitors in fail
   mode, so a CI bench run re-verifies Theorem 2 and the 6n election
   budget on the sizes it times. *)
let run_monitor_checks ~n =
  let art = bench_art ~n in
  let g = Compile.Topology.graph art in
  let labelling, routes = bpaths_precomputed art in
  let trace = Sim.Trace.create () in
  let config =
    { (Core.Broadcast.default_config ()) with trace = Some trace }
  in
  let b =
    Core.Branching_paths.run ~config ~precomputed:labelling ?routes ~graph:g
      ~root:0 ()
  in
  (* the same broadcast, fault-free, with the recovery layer's tree
     echo armed *)
  let r =
    Core.Branching_paths.run
      ~config:
        {
          (Core.Broadcast.default_config ()) with
          recover = Some (Hardware.Recover.default ~n);
        }
      ~precomputed:labelling ?routes ~graph:g ~root:0 ()
  in
  let broadcast_reports =
    [
      Hardware.Monitor.theorem2_broadcast ~n ~syscalls:b.Core.Broadcast.syscalls
        ~time:b.Core.Broadcast.time ();
      Hardware.Monitor.one_way_delivery ~n ~syscalls:b.Core.Broadcast.syscalls;
      Hardware.Monitor.fifo_per_link trace;
      Hardware.Monitor.theorem2_recovering ~n
        ~echo_depth:(Hardware.Monitor.echo_depth (Core.Labels.tree labelling))
        ~syscalls:r.Core.Broadcast.syscalls ~hops:r.Core.Broadcast.hops
        ~time:r.Core.Broadcast.time ();
    ]
  in
  let reports =
    (* the 6n election budget and the 2n+2 header ceiling hold on any
       graph, so at the one-shot sizes the monitors run the election on
       the random benchmark graph instead of being skipped *)
    let e = Core.Election.run ~graph:(election_graph ~n) () in
    broadcast_reports
    @ [
        Hardware.Monitor.election_budget ~n
          ~election_syscalls:e.Core.Election.election_syscalls;
        Hardware.Monitor.dmax_ceiling ~dmax:((2 * n) + 2)
          ~max_header:e.Core.Election.max_route;
      ]
  in
  List.iter
    (fun r -> Format.printf "%a@." Hardware.Monitor.pp_report r)
    reports;
  match Hardware.Monitor.enforce Hardware.Monitor.Fail reports with
  | _ -> ()
  | exception Hardware.Monitor.Violation failed ->
      Printf.eprintf "n=%d: %d monitor violation(s)\n" n (List.length failed);
      exit 3

(* Strip the "futurenet/" group prefix bechamel prepends. *)
let strip_group name =
  match String.index_opt name '/' with
  | Some i when String.sub name 0 i = "futurenet" ->
      String.sub name (i + 1) (String.length name - i - 1)
  | _ -> name

let run_bechamel ~smoke ~json ~monitors ~profile ~jobs ~sizes ~mem_budget
    ~stream ~obs ~scenarios () =
  print_endline "\n###### bechamel timing suite ######";
  let sizes = if smoke then [ 64 ] else List.sort compare sizes in
  let quota = if smoke then 0.01 else 0.25 in
  let replicas = if smoke then 4 else 8 in
  if not smoke then begin
    let rows =
      List.map (fun (name, est) -> (strip_group name, est))
        (measure ~quota (classic_tests ()))
    in
    print_rows rows
  end;
  let rev = git_rev () in
  List.iter
    (fun n ->
      let w = if json then Some (bw_open ~n ~rev) else None in
      (* the semantic runs go first, while the pool set is still the
         timing suite's: OCaml 5.1 never shrinks it, so section order
         decides the high-water mark the --mem-budget gate reads.  In
         one-shot mode timing and semantics are the same executions. *)
      let rows, workloads =
        if one_shot ~n then begin
          Printf.printf
            "\n-- scaling suite, n = %d (one-shot: min of %d runs) --\n%!" n
            (one_shot_repeats ~n);
          one_shot_rows ~scenarios ~n
        end
        else begin
          Printf.printf "\n-- scaling suite, n = %d --\n%!" n;
          let rows =
            List.map (fun (name, est) -> (strip_group name, est))
              (measure ~quota (scaling_tests ~n))
          in
          (rows, if json then semantic_rows ~n else [])
        end
      in
      print_rows rows;
      Format.printf "%a@." Compile.Cache.pp_stats ();
      (match w with
      | Some w ->
          bw_results w rows;
          bw_workloads w workloads
      | None -> ());
      let profiles = if profile then profile_rows ~n else [] in
      if profile then begin
        Printf.printf "\n-- critical-path profiles, n = %d --\n%!" n;
        print_profiles profiles;
        Option.iter (fun w -> bw_profile w profiles) w
      end;
      let latency = if json then latency_rows ~scenarios ~n else [] in
      if latency <> [] then begin
        Printf.printf "\n-- simulated latency, n = %d --\n%!" n;
        print_latency_rows latency;
        Option.iter (fun w -> bw_latency w latency) w
      end;
      (if one_shot ~n then
         Printf.printf
           "\n-- parallel sweeps, n = %d: skipped (replica sweeps multiply \
            multi-second scenario runs; see the bechamel sizes) --\n%!"
           n
       else begin
         Printf.printf "\n-- parallel sweeps, n = %d --\n%!" n;
         let prows, telemetry = parallel_rows ~jobs ~replicas ~n in
         print_parallel_rows ~jobs ~replicas prows;
         (match telemetry with
         | Some summary ->
             Printf.printf "pool telemetry (jobs=%d):\n%s%!" jobs summary
         | None -> ());
         if List.exists (fun r -> not r.pr_deterministic) prows then begin
           Printf.eprintf
             "n=%d: parallel sweep metrics diverged between job counts\n" n;
           let diverged =
             List.filter
               (fun sc ->
                 List.exists
                   (fun r ->
                     (not r.pr_deterministic)
                     && String.equal r.pr_name
                          (Parallel.Sweep.scenario_name sc))
                   prows)
               parallel_scenarios
           in
           localise_parallel_divergence ~jobs ~replicas ~n diverged;
           exit 5
         end;
         Option.iter (fun w -> bw_parallel w (jobs, replicas, prows)) w
       end);
      if stream then begin
        let events, bytes, path = stream_trace_export ~n in
        Printf.printf
          "\n-- streamed trace, n = %d: %d events (%d bytes) -> %s --\n%!" n
          events bytes path
      end;
      let obs_rows =
        if obs then begin
          Printf.printf "\n-- observability overhead, n = %d --\n%!" n;
          let orows = obs_overhead_rows ~n in
          print_obs_rows orows;
          Option.iter (fun w -> bw_obs w orows) w;
          orows
        end
        else []
      in
      Option.iter (fun w -> bw_close w ~peak_heap_bytes:(peak_heap_bytes ())) w;
      (* enforcement comes after the json write so a violation still
         leaves the measured ratios on disk for inspection *)
      if obs then enforce_obs_budget ~n obs_rows;
      if monitors then begin
        Printf.printf "\n-- paper-bound monitors, n = %d --\n%!" n;
        run_monitor_checks ~n
      end;
      match mem_budget with
      | Some budget -> enforce_mem_budget ~n ~budget (peak_heap_bytes ())
      | None -> ())
    sizes

(* -- argv ------------------------------------------------------------- *)

let parse_sizes s =
  match
    List.map
      (fun part ->
        match int_of_string_opt (String.trim part) with
        | Some n when n >= 4 -> n
        | _ -> raise Exit)
      (String.split_on_char ',' s)
  with
  | sizes when sizes <> [] -> Some sizes
  | _ -> None
  | exception Exit -> None

let usage () =
  prerr_endline
    "usage: main.exe [all | figures | bench | e1..e9 | a1..a5]...\n\
    \       main.exe bench [--smoke] [--json] [--monitors] [--profile]\n\
    \                      [--stream] [--obs-overhead] [--out-dir DIR]\n\
    \                      [--sizes N,N,...] [--scenarios K,K,...]\n\
    \                      [--jobs N] [--mem-budget BYTES]\n\
    \       main.exe bench --check BASELINE.json [--check ...] [--tolerance P]"

(* Run the named experiments / the bench suite.  Unknown arguments are
   reported but do not abort the rest of the list; the exit code
   reflects whether everything was recognised. *)
let run_args args =
  let failed = ref false in
  let complain fmt =
    failed := true;
    Printf.eprintf fmt
  in
  let rec loop = function
    | [] -> ()
    | "figures" :: rest ->
        Experiments.figures ();
        loop rest
    | "all" :: rest ->
        Experiments.run_all ();
        loop rest
    | "bench" :: rest ->
        (* bench consumes its flags, then continues with what is left *)
        let smoke = ref false and json = ref false and monitors = ref false in
        let profile = ref false in
        let stream = ref false and obs = ref false in
        let jobs = ref (Parallel.Pool.default_jobs ()) in
        let sizes = ref default_sizes in
        let scenarios = ref None in
        let checks = ref [] in
        let tolerance = ref 15.0 in
        let mem_budget = ref None in
        let rec flags = function
          | "--smoke" :: rest ->
              smoke := true;
              flags rest
          | "--json" :: rest ->
              json := true;
              flags rest
          | "--monitors" :: rest ->
              monitors := true;
              flags rest
          | "--profile" :: rest ->
              profile := true;
              flags rest
          | "--stream" :: rest ->
              stream := true;
              flags rest
          | "--obs-overhead" :: rest ->
              obs := true;
              flags rest
          | "--check" :: value :: rest ->
              checks := value :: !checks;
              flags rest
          | "--check" :: [] ->
              complain "--check needs a baseline file\n";
              []
          | "--tolerance" :: value :: rest -> (
              match float_of_string_opt value with
              | Some t when t >= 0.0 ->
                  tolerance := t;
                  flags rest
              | _ ->
                  complain "bad --tolerance value %S (want a percentage)\n"
                    value;
                  flags rest)
          | "--tolerance" :: [] ->
              complain "--tolerance needs a value\n";
              []
          | "--sizes" :: value :: rest -> (
              match parse_sizes value with
              | Some s ->
                  sizes := s;
                  flags rest
              | None ->
                  complain "bad --sizes value %S (want e.g. 64,256)\n" value;
                  flags rest)
          | "--sizes" :: [] ->
              complain "--sizes needs a value\n";
              []
          | "--scenarios" :: value :: rest ->
              let keys =
                List.map String.trim (String.split_on_char ',' value)
              in
              let unknown =
                List.filter (fun k -> not (List.mem k one_shot_keys)) keys
              in
              if keys = [] || unknown <> [] then begin
                complain "bad --scenarios value %S (known keys: %s)\n" value
                  (String.concat "," one_shot_keys);
                flags rest
              end
              else begin
                scenarios := Some keys;
                flags rest
              end
          | "--scenarios" :: [] ->
              complain "--scenarios needs a value\n";
              []
          | "--out-dir" :: value :: rest ->
              out_dir := value;
              flags rest
          | "--out-dir" :: [] ->
              complain "--out-dir needs a value\n";
              []
          | "--jobs" :: value :: rest -> (
              match int_of_string_opt value with
              | Some j when j >= 1 ->
                  jobs := j;
                  flags rest
              | _ ->
                  complain "bad --jobs value %S (want a positive int)\n" value;
                  flags rest)
          | "--jobs" :: [] ->
              complain "--jobs needs a value\n";
              []
          | "--mem-budget" :: value :: rest -> (
              match int_of_string_opt value with
              | Some b when b >= 1 ->
                  mem_budget := Some b;
                  flags rest
              | _ ->
                  complain "bad --mem-budget value %S (want bytes per node)\n"
                    value;
                  flags rest)
          | "--mem-budget" :: [] ->
              complain "--mem-budget needs a value\n";
              []
          | rest -> rest
        in
        let rest = flags rest in
        if !checks <> [] then begin
          (* the regression gate is a pure file diff: no timing *)
          let all_ok =
            List.fold_left
              (fun ok b -> check_baseline ~tolerance:!tolerance b && ok)
              true (List.rev !checks)
          in
          if not all_ok then exit 4
        end
        else
          run_bechamel ~smoke:!smoke ~json:!json ~monitors:!monitors
            ~profile:!profile ~jobs:!jobs ~sizes:!sizes
            ~mem_budget:!mem_budget ~stream:!stream ~obs:!obs
            ~scenarios:!scenarios ();
        loop rest
    | id :: rest ->
        (match Experiments.find id with
        | Some (_, description, run) ->
            Printf.printf "\n###### %s - %s ######\n"
              (String.uppercase_ascii id)
              description;
            run ()
        | None ->
            complain
              "unknown experiment %S (known: e1..e9, figures, bench, all)\n" id);
        loop rest
  in
  loop args;
  if !failed then begin
    usage ();
    exit 2
  end

let () =
  match Array.to_list Sys.argv with
  | _ :: (_ :: _ as args) -> run_args args
  | _ ->
      Experiments.run_all ();
      run_bechamel ~smoke:false ~json:false ~monitors:false ~profile:false
        ~jobs:(Parallel.Pool.default_jobs ())
        ~sizes:default_sizes ~mem_budget:None ~stream:false ~obs:false
        ~scenarios:None ()
