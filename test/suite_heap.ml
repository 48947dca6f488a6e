(* Tests for Sim.Heap: ordering, stability, dynamic growth.  Priorities
   are floats, the engine's simulated times. *)

let check_int = Alcotest.(check int)

let test_empty () =
  let h = Sim.Heap.create () in
  Alcotest.(check bool) "is_empty" true (Sim.Heap.is_empty h);
  check_int "length" 0 (Sim.Heap.length h);
  Alcotest.(check bool) "pop None" true (Sim.Heap.pop h = None);
  Alcotest.(check bool) "peek None" true (Sim.Heap.peek h = None)

let test_sorted_pop () =
  let h = Sim.Heap.create () in
  List.iter
    (fun p -> Sim.Heap.push h p p)
    [ 5.; 3.; 9.; 1.; 7.; 2.; 8.; 4.; 6.; 0. ];
  let rec drain acc =
    match Sim.Heap.pop h with None -> List.rev acc | Some (p, _) -> drain (p :: acc)
  in
  Alcotest.(check (list (float 0.)))
    "sorted" (List.init 10 float_of_int) (drain [])

let test_peek_does_not_remove () =
  let h = Sim.Heap.create () in
  Sim.Heap.push h 2. "b";
  Sim.Heap.push h 1. "a";
  Alcotest.(check bool) "peek min" true (Sim.Heap.peek h = Some (1., "a"));
  check_int "length unchanged" 2 (Sim.Heap.length h)

let test_fifo_stability () =
  let h = Sim.Heap.create () in
  List.iteri (fun i name -> Sim.Heap.push h (float_of_int (i mod 2)) name)
    [ "a"; "b"; "c"; "d"; "e"; "f" ];
  (* priority 0: a(0) c(2) e(4); priority 1: b d f *)
  let rec drain acc =
    match Sim.Heap.pop h with None -> List.rev acc | Some (_, v) -> drain (v :: acc)
  in
  Alcotest.(check (list string)) "insertion order within priority"
    [ "a"; "c"; "e"; "b"; "d"; "f" ] (drain [])

let test_growth () =
  let h = Sim.Heap.create () in
  for i = 999 downto 0 do
    Sim.Heap.push h (float_of_int i) i
  done;
  check_int "length" 1000 (Sim.Heap.length h);
  let rec drain last count =
    match Sim.Heap.pop h with
    | None -> count
    | Some (p, _) ->
        Alcotest.(check bool) "non-decreasing" true (p >= last);
        drain p (count + 1)
  in
  check_int "all popped" 1000 (drain neg_infinity 0)

let test_clear () =
  let h = Sim.Heap.create () in
  Sim.Heap.push h 1. ();
  Sim.Heap.clear h;
  Alcotest.(check bool) "empty after clear" true (Sim.Heap.is_empty h)

let test_clear_resets_fifo_seq () =
  (* after clear, FIFO tie-breaking starts over: the replica-loop reuse
     case must behave exactly like a fresh heap *)
  let h = Sim.Heap.create () in
  Sim.Heap.push h 0. "stale";
  Sim.Heap.clear h;
  Sim.Heap.push h 1. "a";
  Sim.Heap.push h 1. "b";
  Alcotest.(check (list string)) "fresh FIFO order" [ "a"; "b" ]
    (List.map snd (Sim.Heap.to_sorted_list h))

let test_capacity_hint () =
  let h = Sim.Heap.create ~capacity:1000 () in
  for i = 0 to 999 do
    Sim.Heap.push h (float_of_int i) i
  done;
  check_int "holds capacity items" 1000 (Sim.Heap.length h);
  Alcotest.(check bool) "negative capacity rejected" true
    (match Sim.Heap.create ~capacity:(-1) () with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_min_prio_and_pop_min () =
  let h = Sim.Heap.create () in
  List.iter (fun p -> Sim.Heap.push h (float_of_int p) (10 * p)) [ 4; 2; 7 ];
  Alcotest.(check (float 0.)) "min_prio" 2. (Sim.Heap.min_prio h);
  check_int "pop_min value" 20 (Sim.Heap.pop_min h);
  Alcotest.(check (float 0.)) "next min_prio" 4. (Sim.Heap.min_prio h);
  check_int "pop_min again" 40 (Sim.Heap.pop_min h);
  check_int "last" 70 (Sim.Heap.pop_min h);
  Alcotest.(check bool) "min_prio on empty raises" true
    (match Sim.Heap.min_prio h with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "pop_min on empty raises" true
    (match Sim.Heap.pop_min h with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_to_sorted_list_nondestructive () =
  let h = Sim.Heap.create () in
  List.iter (fun p -> Sim.Heap.push h p p) [ 3.; 1.; 2. ];
  let listed = List.map fst (Sim.Heap.to_sorted_list h) in
  Alcotest.(check (list (float 0.))) "sorted listing" [ 1.; 2.; 3. ] listed;
  check_int "heap intact" 3 (Sim.Heap.length h)

let test_negated_priorities () =
  (* a max-heap is the min-heap of negated priorities *)
  let h = Sim.Heap.create () in
  List.iter (fun p -> Sim.Heap.push h (-.float_of_int p) p) [ 1; 3; 2 ];
  Alcotest.(check bool) "max-heap peek" true (Sim.Heap.peek h = Some (-3., 3))

let qcheck_heap_sorts =
  QCheck.Test.make ~name:"heap pops in sorted stable order" ~count:300
    QCheck.(list (pair small_int small_int))
    (fun items ->
      let h = Sim.Heap.create () in
      List.iter (fun (p, v) -> Sim.Heap.push h (float_of_int p) v) items;
      let rec drain acc =
        match Sim.Heap.pop h with
        | None -> List.rev acc
        | Some (p, v) -> drain ((p, v) :: acc)
      in
      let popped = drain [] in
      (* stable sort of the input by priority must equal the pop order *)
      let expected =
        List.stable_sort (fun (a, _) (b, _) -> compare a b) items
        |> List.map (fun (p, v) -> (float_of_int p, v))
      in
      popped = expected)

let suite =
  [
    Alcotest.test_case "empty heap" `Quick test_empty;
    Alcotest.test_case "sorted pop" `Quick test_sorted_pop;
    Alcotest.test_case "peek non-destructive" `Quick test_peek_does_not_remove;
    Alcotest.test_case "FIFO tie-break" `Quick test_fifo_stability;
    Alcotest.test_case "growth to 1000" `Quick test_growth;
    Alcotest.test_case "clear" `Quick test_clear;
    Alcotest.test_case "clear resets FIFO sequence" `Quick
      test_clear_resets_fifo_seq;
    Alcotest.test_case "capacity hint" `Quick test_capacity_hint;
    Alcotest.test_case "min_prio and pop_min" `Quick test_min_prio_and_pop_min;
    Alcotest.test_case "to_sorted_list" `Quick test_to_sorted_list_nondestructive;
    Alcotest.test_case "negated priorities" `Quick test_negated_priorities;
    QCheck_alcotest.to_alcotest qcheck_heap_sorts;
  ]
