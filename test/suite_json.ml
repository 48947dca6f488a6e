(* Sim.Json, the one JSON codec: parsing, accessors, quoting, number
   printing — and the property it exists for, that every writer
   escapes exactly like the trace exporter. *)

module J = Sim.Json

let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let parses s = match J.parse s with Ok v -> v | Error m -> Alcotest.fail m

let rejected s = match J.parse s with Error _ -> true | Ok _ -> false

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_parse_values () =
  check_bool "nested document" true
    (parses {| { "a" : [1, -2.5e3, true, false, null], "b": {"c": "d"} } |}
    = J.Obj
        [
          ("a", J.Arr [ J.Num 1.; J.Num (-2500.); J.Bool true; J.Bool false;
                        J.Null ]);
          ("b", J.Obj [ ("c", J.Str "d") ]);
        ]);
  check_bool "empty containers" true
    (parses "[{},[]]" = J.Arr [ J.Obj []; J.Arr [] ]);
  check_bool "escapes decode" true
    (parses {|"q\"b\\s\/n\nt\tr\ru\u0001eé"|}
    = J.Str "q\"b\\s/n\nt\tr\ru\001e\xc3\xa9")

let test_parse_rejects () =
  List.iter
    (fun s -> check_bool s true (rejected s))
    [ ""; "{"; "[1,]"; {|{"a" 1}|}; {|"open|}; "tru"; "1 2"; "{} x"; "-";
      {|"\x"|}; {|"\u12"|} ]

let test_accessors () =
  let doc = parses {|{"i": 3, "f": 1.5, "s": "x", "l": [], "b": true}|} in
  let get k conv = Result.bind (J.member k doc) conv in
  check_bool "int" true (get "i" J.to_int = Ok 3);
  check_bool "float" true (get "f" J.to_float = Ok 1.5);
  check_bool "non-integer is no int" true (Result.is_error (get "f" J.to_int));
  check_bool "string" true (get "s" J.to_string = Ok "x");
  check_bool "list" true (get "l" J.to_list = Ok []);
  check_bool "bool" true (get "b" J.to_bool = Ok true);
  check_bool "missing" true (Result.is_error (J.member "zz" doc));
  check_bool "member of non-object" true
    (Result.is_error (J.member "a" (J.Num 1.)))

let test_quote_roundtrip () =
  let s = "a\"b\\c\nd\te\rf\001g\031h/é" in
  check_string "quote" {|"a\"b\\c\nd\te\rf\u0001g\u001fh/é"|} (J.quote s);
  check_bool "parse inverts quote" true (parses (J.quote s) = J.Str s)

let test_number () =
  check_string "integer" "3" (J.number 3.0);
  check_string "%.12g" "0.333333333333" (J.number (1.0 /. 3.0));
  check_string "nan is 0" "0" (J.number nan);
  check_bool "infinity is finite JSON" true
    (parses (J.number infinity) = J.Num (float_of_string (J.number max_float)));
  check_bool "-infinity keeps its sign" true
    (String.get (J.number neg_infinity) 0 = '-')

(* Every writer escapes like Trace_export, tab, CR and other control
   bytes included. *)
let awkward = "tab\there\rcr\001soh\"q\\b"

let test_writers_escape_like_trace_export () =
  let quoted = Sim.Trace_export.json_string awkward in
  let raw_free json =
    not (String.exists (fun c -> Char.code c < 0x20 && c <> '\n') json)
  in
  let reg = Hardware.Registry.create () in
  Hardware.Registry.incr (Hardware.Registry.counter reg awkward);
  let reg_json = Hardware.Registry.to_json reg in
  check_bool "registry quotes like Trace_export" true (contains reg_json quoted);
  check_bool "registry emits no raw control bytes" true (raw_free reg_json);
  let dag =
    Analysis.Event_dag.of_events
      [ Sim.Trace.Syscall { node = 0; time = 1.0; label = awkward } ]
  in
  match Analysis.Critical_path.compute dag with
  | None -> Alcotest.fail "a one-event trace has a critical path"
  | Some cp ->
      let cp_json = Analysis.Critical_path.to_json cp in
      check_bool "critical path quotes like Trace_export" true
        (contains cp_json quoted);
      check_bool "critical path emits no raw control bytes" true
        (raw_free cp_json);
      check_bool "critical path output parses" true
        (Result.is_ok (J.parse cp_json))

let suite =
  [
    Alcotest.test_case "parse values" `Quick test_parse_values;
    Alcotest.test_case "parse rejects garbage" `Quick test_parse_rejects;
    Alcotest.test_case "accessors" `Quick test_accessors;
    Alcotest.test_case "quote round-trip" `Quick test_quote_roundtrip;
    Alcotest.test_case "number never nan/inf" `Quick test_number;
    Alcotest.test_case "writers escape alike" `Quick
      test_writers_escape_like_trace_export;
  ]
