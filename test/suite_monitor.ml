(* The paper-bound monitors of Hardware.Monitor, run in [Fail] mode
   against real executions across every topology family — plus negative
   tests proving that a violated bound is actually reported. *)

module BC = Core.Broadcast
module BP = Core.Branching_paths
module FL = Core.Flooding
module EL = Core.Election
module M = Hardware.Monitor
module B = Netgraph.Builders
module G = Netgraph.Graph

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let graphs () =
  let rng = Sim.Rng.create ~seed:61 in
  [
    ("path16", B.path 16);
    ("ring12", B.ring 12);
    ("star20", B.star 20);
    ("grid4x5", B.grid ~rows:4 ~cols:5);
    ("binary31", B.complete_binary_tree ~depth:4);
    ("hypercube16", B.hypercube 4);
    ("rand40", B.random_connected rng ~n:40 ~extra_edges:25);
  ]

(* Theorem 2 + FIFO + one-way monitors hold, in Fail mode, for a
   branching-paths broadcast on every family. *)
let test_theorem2_fail_mode_all_families () =
  List.iter
    (fun (name, g) ->
      let trace = Sim.Trace.create () in
      let config = { (BC.default_config ()) with trace = Some trace } in
      let r = BP.run ~config ~graph:g ~root:0 () in
      let reports =
        [
          M.theorem2_broadcast ~n:(G.n g) ~syscalls:r.BC.syscalls
            ~time:r.BC.time ();
          M.one_way_delivery ~n:(G.n g) ~syscalls:r.BC.syscalls;
          M.fifo_per_link trace;
        ]
      in
      match M.enforce M.Fail reports with
      | [] -> ()
      | _ -> Alcotest.failf "%s: monitors reported failure" name)
    (graphs ())

(* Theorem 5's 6n election budget holds, in Fail mode, on every
   family; the headers stay under the live dmax the election sets. *)
let test_election_budget_fail_mode_all_families () =
  List.iter
    (fun (name, g) ->
      let n = G.n g in
      let r = EL.run ~graph:g () in
      let reports =
        [
          M.election_budget ~n ~election_syscalls:r.EL.election_syscalls;
          M.dmax_ceiling ~dmax:((2 * n) + 2) ~max_header:r.EL.max_route;
        ]
      in
      match M.enforce M.Fail reports with
      | [] -> ()
      | _ -> Alcotest.failf "%s: election monitors reported failure" name)
    (graphs ())

(* Negative: flooding spends far more than n system calls on any graph
   with extra edges, so the Theorem 2 monitor must flag it — and Fail
   mode must raise [Violation] carrying the failed report. *)
let test_flooding_violates_theorem2 () =
  let g = B.hypercube 4 in
  let r = FL.run ~graph:g ~root:0 () in
  check_bool "flooding really oversteps" true (r.BC.syscalls > G.n g);
  let report =
    M.theorem2_broadcast ~n:(G.n g) ~syscalls:r.BC.syscalls ~time:r.BC.time ()
  in
  check_bool "monitor reports the violation" false report.M.ok;
  check_bool "Fail mode raises Violation" true
    (try
       ignore (M.enforce M.Fail [ report ] : M.report list);
       false
     with M.Violation [ rep ] -> rep.M.monitor = report.M.monitor)

(* Negative: Warn mode prints the violation but does not raise, and
   still returns the failed reports so a caller can count them. *)
let test_warn_mode_reports_without_raising () =
  let bad = M.election_budget ~n:4 ~election_syscalls:1000 in
  check_bool "budget monitor rejects 1000 > 6*4" false bad.M.ok;
  let buf = Buffer.create 64 in
  let out = Format.formatter_of_buffer buf in
  let failed = M.enforce ~out M.Warn [ bad ] in
  Format.pp_print_flush out ();
  check_int "one failed report returned" 1 (List.length failed);
  check_bool "warning was printed" true (Buffer.length buf > 0);
  (* Off mode neither raises nor prints, but still returns them *)
  check_int "Off mode returns failures silently" 1
    (List.length (M.enforce M.Off [ bad ]))

(* Negative: a header longer than dmax is flagged. *)
let test_dmax_ceiling_violation () =
  let ok = M.dmax_ceiling ~dmax:32 ~max_header:32 in
  let bad = M.dmax_ceiling ~dmax:32 ~max_header:33 in
  check_bool "at the ceiling passes" true ok.M.ok;
  check_bool "one over the ceiling fails" false bad.M.ok

(* Negative: a hand-built trace where a link's second packet completes
   its hop before the first is a FIFO violation. *)
let test_fifo_violation_detected () =
  let t = Sim.Trace.create () in
  Sim.Trace.record t (Sim.Trace.Hop { src = 0; dst = 1; time = 2.0; msg_id = 0 });
  Sim.Trace.record t (Sim.Trace.Hop { src = 0; dst = 1; time = 1.0; msg_id = 1 });
  let report = M.fifo_per_link t in
  check_bool "reordered link flagged" false report.M.ok;
  (* the reverse direction is a different FIFO queue: no violation *)
  let t2 = Sim.Trace.create () in
  Sim.Trace.record t2 (Sim.Trace.Hop { src = 0; dst = 1; time = 2.0; msg_id = 0 });
  Sim.Trace.record t2 (Sim.Trace.Hop { src = 1; dst = 0; time = 1.0; msg_id = 1 });
  check_bool "opposite directions independent" true (M.fifo_per_link t2).M.ok;
  (* a disabled trace passes vacuously *)
  check_bool "disabled trace vacuous" true
    (M.fifo_per_link (Sim.Trace.disabled ())).M.ok

(* The time bound is sharp: pretend a broadcast took one unit longer
   than (2 + log2 n) * P and the monitor must flag it. *)
let test_theorem2_time_bound_is_checked () =
  let n = 16 in
  let limit = (2.0 +. Sim.Stats.log2 (float_of_int n)) *. 1.0 in
  let at_limit = M.theorem2_broadcast ~n ~syscalls:n ~time:limit () in
  let over = M.theorem2_broadcast ~n ~syscalls:n ~time:(limit +. 1.0) () in
  check_bool "exactly at the bound passes" true at_limit.M.ok;
  check_bool "over the bound fails" false over.M.ok;
  (* scaling P scales the wall-clock bound *)
  let scaled = M.theorem2_broadcast ~p:2.0 ~n ~syscalls:n ~time:(limit *. 2.0) () in
  check_bool "bound scales with P" true scaled.M.ok

(* The recovering variant holds, in Fail mode, for a fault-free
   recovering branching-paths broadcast on every family — the star's
   centre, absorbing 19 echoes in a row, included. *)
let test_theorem2_recovering_all_families () =
  List.iter
    (fun (name, g) ->
      let n = G.n g in
      let config =
        {
          (BC.default_config ()) with
          recover = Some (Hardware.Recover.default ~n);
        }
      in
      let r = BP.run ~config ~graph:g ~root:0 () in
      let tree = BP.tree_for ~view:g ~root:0 in
      let report =
        M.theorem2_recovering ~n ~echo_depth:(M.echo_depth tree)
          ~syscalls:r.BC.syscalls ~hops:r.BC.hops ~time:r.BC.time ()
      in
      if not report.M.ok then
        Alcotest.failf "%s: %s" name report.M.detail)
    (graphs ())

(* Negative: the counts the per-node acks to the root used to give on
   the depth-10 complete binary tree (n=2047: every node's ack walked
   its whole root path, and the root absorbed them one P apart) break
   both the hop count and the time bound. *)
let test_theorem2_recovering_rejects_per_node_acks () =
  let g = B.complete_binary_tree ~depth:10 in
  let n = G.n g in
  let echo_depth = M.echo_depth (Netgraph.Spanning.bfs_tree g ~root:0) in
  check_int "echo depth of a binary tree is twice its height" 20 echo_depth;
  let ok ~hops ~time =
    (M.theorem2_recovering ~n ~echo_depth ~syscalls:4093 ~hops ~time ()).M.ok
  in
  check_bool "per-node ack counts rejected" false
    (ok ~hops:20480 ~time:2048.0);
  check_bool "their hop count alone rejected" false (ok ~hops:20480 ~time:31.0);
  check_bool "their time alone rejected" false (ok ~hops:4092 ~time:2048.0);
  check_bool "tree echo counts accepted" true (ok ~hops:4092 ~time:31.0)

let test_mode_of_string_roundtrip () =
  List.iter
    (fun m ->
      match M.mode_of_string (M.mode_to_string m) with
      | Some m' -> check_bool "roundtrip" true (m = m')
      | None -> Alcotest.fail "mode_of_string rejected its own rendering")
    [ M.Off; M.Warn; M.Fail ];
  check_bool "unknown rejected" true (M.mode_of_string "loud" = None)

let suite =
  [
    Alcotest.test_case "theorem 2 in fail mode, all families" `Quick
      test_theorem2_fail_mode_all_families;
    Alcotest.test_case "6n election budget in fail mode, all families" `Quick
      test_election_budget_fail_mode_all_families;
    Alcotest.test_case "flooding violates theorem 2" `Quick
      test_flooding_violates_theorem2;
    Alcotest.test_case "warn mode reports without raising" `Quick
      test_warn_mode_reports_without_raising;
    Alcotest.test_case "dmax ceiling violation" `Quick
      test_dmax_ceiling_violation;
    Alcotest.test_case "fifo violation detected" `Quick
      test_fifo_violation_detected;
    Alcotest.test_case "theorem 2 time bound checked" `Quick
      test_theorem2_time_bound_is_checked;
    Alcotest.test_case "theorem 2 recovering, all families" `Quick
      test_theorem2_recovering_all_families;
    Alcotest.test_case "theorem 2 recovering rejects per-node acks" `Quick
      test_theorem2_recovering_rejects_per_node_acks;
    Alcotest.test_case "mode strings roundtrip" `Quick
      test_mode_of_string_roundtrip;
  ]
