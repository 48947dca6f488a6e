(* Tests for Sim.Engine: clock, ordering, FIFO ties, horizons. *)

let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))
let check_bool = Alcotest.(check bool)

let test_initial_state () =
  let e = Sim.Engine.create () in
  check_float "clock 0" 0.0 (Sim.Engine.now e);
  check_int "no events" 0 (Sim.Engine.pending e)

let test_time_ordering () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  Sim.Engine.schedule e ~delay:3.0 (fun () -> log := 3 :: !log);
  Sim.Engine.schedule e ~delay:1.0 (fun () -> log := 1 :: !log);
  Sim.Engine.schedule e ~delay:2.0 (fun () -> log := 2 :: !log);
  Alcotest.(check bool) "quiescent" true (Sim.Engine.run e = Sim.Engine.Quiescent);
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !log)

let test_fifo_same_time () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  for i = 0 to 9 do
    Sim.Engine.schedule e ~delay:1.0 (fun () -> log := i :: !log)
  done;
  ignore (Sim.Engine.run e);
  Alcotest.(check (list int)) "scheduling order" (List.init 10 Fun.id) (List.rev !log)

let test_clock_advances () =
  let e = Sim.Engine.create () in
  let seen = ref [] in
  Sim.Engine.schedule e ~delay:2.5 (fun () -> seen := Sim.Engine.now e :: !seen);
  Sim.Engine.schedule e ~delay:1.5 (fun () -> seen := Sim.Engine.now e :: !seen);
  ignore (Sim.Engine.run e);
  Alcotest.(check (list (float 1e-9))) "timestamps" [ 1.5; 2.5 ] (List.rev !seen)

let test_nested_scheduling () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  Sim.Engine.schedule e ~delay:1.0 (fun () ->
      log := "outer" :: !log;
      Sim.Engine.schedule e ~delay:1.0 (fun () -> log := "inner" :: !log));
  ignore (Sim.Engine.run e);
  Alcotest.(check (list string)) "nested" [ "outer"; "inner" ] (List.rev !log);
  check_float "final clock" 2.0 (Sim.Engine.now e)

let test_zero_delay_chain () =
  let e = Sim.Engine.create () in
  let count = ref 0 in
  let rec step () =
    incr count;
    if !count < 100 then Sim.Engine.schedule e ~delay:0.0 step
  in
  Sim.Engine.schedule e ~delay:0.0 step;
  ignore (Sim.Engine.run e);
  check_int "100 chained zero-delay events" 100 !count;
  check_float "clock still 0" 0.0 (Sim.Engine.now e)

let test_until_horizon () =
  let e = Sim.Engine.create () in
  let fired = ref [] in
  List.iter
    (fun d -> Sim.Engine.schedule e ~delay:d (fun () -> fired := d :: !fired))
    [ 1.0; 2.0; 3.0; 4.0 ];
  let outcome = Sim.Engine.run ~until:2.5 e in
  check_bool "time limited" true (outcome = Sim.Engine.Time_limit);
  Alcotest.(check (list (float 1e-9))) "fired before horizon" [ 1.0; 2.0 ] (List.rev !fired);
  check_float "clock at horizon" 2.5 (Sim.Engine.now e);
  check_int "pending remain" 2 (Sim.Engine.pending e);
  (* resume *)
  check_bool "drains" true (Sim.Engine.run e = Sim.Engine.Quiescent);
  check_int "all fired" 4 (List.length !fired)

let test_event_budget () =
  let e = Sim.Engine.create () in
  for i = 0 to 9 do
    Sim.Engine.schedule e ~delay:(float_of_int i) (fun () -> ())
  done;
  check_bool "budget hit" true (Sim.Engine.run ~max_events:4 e = Sim.Engine.Event_limit);
  check_int "6 left" 6 (Sim.Engine.pending e)

let test_past_scheduling_rejected () =
  let e = Sim.Engine.create () in
  Sim.Engine.schedule e ~delay:5.0 (fun () ->
      Alcotest.check_raises "past time"
        (Invalid_argument "Engine.schedule_at: time 1 is before now 5")
        (fun () -> Sim.Engine.schedule_at e ~time:1.0 (fun () -> ()));
      (* a NaN time would break the queue's order *)
      Alcotest.check_raises "NaN time"
        (Invalid_argument "Engine.schedule_at: time nan is before now 5")
        (fun () -> Sim.Engine.schedule_at e ~time:Float.nan (fun () -> ())));
  ignore (Sim.Engine.run e)

let test_negative_delay_rejected () =
  let e = Sim.Engine.create () in
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Engine.schedule: negative delay") (fun () ->
      Sim.Engine.schedule e ~delay:(-1.0) (fun () -> ()))

let test_step () =
  let e = Sim.Engine.create () in
  let n = ref 0 in
  Sim.Engine.schedule e ~delay:1.0 (fun () -> incr n);
  check_bool "step true" true (Sim.Engine.step e);
  check_int "ran" 1 !n;
  check_bool "step false when empty" false (Sim.Engine.step e)

let test_events_processed () =
  let e = Sim.Engine.create () in
  for _ = 1 to 5 do
    Sim.Engine.schedule e ~delay:1.0 (fun () -> ())
  done;
  ignore (Sim.Engine.run e);
  check_int "count" 5 (Sim.Engine.events_processed e)

(* Satellite fix: an empty queue must report Quiescent even when the
   event budget is exhausted — the budget only limits work actually
   done, it must not mask completion. *)
let test_empty_queue_beats_budget () =
  let e = Sim.Engine.create () in
  for _ = 1 to 3 do
    Sim.Engine.schedule e ~delay:1.0 (fun () -> ())
  done;
  Alcotest.(check bool) "drained under exact budget" true
    (Sim.Engine.run ~max_events:3 e = Sim.Engine.Quiescent);
  Alcotest.(check bool) "empty + zero budget is quiescent" true
    (Sim.Engine.run ~max_events:0 e = Sim.Engine.Quiescent)

let test_reset_reuses_engine () =
  let e = Sim.Engine.create ~queue_capacity:8 () in
  Sim.Engine.schedule e ~delay:2.0 (fun () -> ());
  Sim.Engine.schedule e ~delay:5.0 (fun () -> ());
  ignore (Sim.Engine.run e);
  check_float "clock advanced" 5.0 (Sim.Engine.now e);
  Sim.Engine.reset e;
  check_float "clock back to 0" 0.0 (Sim.Engine.now e);
  check_int "no pending" 0 (Sim.Engine.pending e);
  check_int "counter back to 0" 0 (Sim.Engine.events_processed e);
  (* a second run behaves exactly like a fresh engine *)
  let log = ref [] in
  Sim.Engine.schedule e ~delay:1.0 (fun () -> log := 1 :: !log);
  Sim.Engine.schedule e ~delay:1.0 (fun () -> log := 2 :: !log);
  Alcotest.(check bool) "second run quiescent" true
    (Sim.Engine.run e = Sim.Engine.Quiescent);
  Alcotest.(check (list int)) "FIFO fresh after reset" [ 1; 2 ] (List.rev !log)

let test_reset_mid_flight_pending_dropped () =
  let e = Sim.Engine.create () in
  Sim.Engine.schedule e ~delay:1.0 (fun () -> ());
  Sim.Engine.schedule e ~delay:9.0 (fun () -> ());
  ignore (Sim.Engine.run ~max_events:1 e);
  Sim.Engine.reset e;
  Alcotest.(check bool) "pending dropped, quiescent" true
    (Sim.Engine.run e = Sim.Engine.Quiescent);
  check_int "nothing executed" 0 (Sim.Engine.events_processed e)

let suite =
  [
    Alcotest.test_case "initial state" `Quick test_initial_state;
    Alcotest.test_case "time ordering" `Quick test_time_ordering;
    Alcotest.test_case "FIFO same time" `Quick test_fifo_same_time;
    Alcotest.test_case "clock advances" `Quick test_clock_advances;
    Alcotest.test_case "nested scheduling" `Quick test_nested_scheduling;
    Alcotest.test_case "zero-delay chain" `Quick test_zero_delay_chain;
    Alcotest.test_case "until horizon + resume" `Quick test_until_horizon;
    Alcotest.test_case "event budget" `Quick test_event_budget;
    Alcotest.test_case "past scheduling rejected" `Quick test_past_scheduling_rejected;
    Alcotest.test_case "negative delay rejected" `Quick test_negative_delay_rejected;
    Alcotest.test_case "single step" `Quick test_step;
    Alcotest.test_case "events processed" `Quick test_events_processed;
    Alcotest.test_case "empty queue beats budget" `Quick
      test_empty_queue_beats_budget;
    Alcotest.test_case "reset reuses the engine" `Quick test_reset_reuses_engine;
    Alcotest.test_case "reset drops pending" `Quick
      test_reset_mid_flight_pending_dropped;
  ]
