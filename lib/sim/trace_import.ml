(* Each line is parsed by {!Json}; what makes it a schema-v2 record
   is checked on the parsed value: a flat object (nested values are not
   part of the vocabulary) carrying a string "type".  Strictness is
   deliberate — a malformed line means the stream was corrupted (or is
   not ours), and analysis over a corrupted stream should refuse, not
   guess. *)

type line =
  | Header of { schema_version : int; kind : string;
                fields : (string * Json.t) list }
  | Event of Trace.event
  | Truncated of { time : float; dropped : int; dropped_ring : int;
                   dropped_sink : int }
  | Other of { kind : string; fields : (string * Json.t) list }

exception Bad of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

let req conv j key =
  match Result.bind (Json.member key j) conv with
  | Ok v -> v
  | Error msg -> bad "field %S: %s" key msg

let req_number = req Json.to_float
let req_int = req Json.to_int
let req_string = req Json.to_string
let req_bool = req Json.to_bool

(* -- classification ----------------------------------------------------- *)

let event_of_record kind j =
  match kind with
  | "hop" ->
      Some
        (Trace.Hop
           {
             src = req_int j "src";
             dst = req_int j "dst";
             time = req_number j "time";
             msg_id = req_int j "msg_id";
           })
  | "syscall" ->
      Some
        (Trace.Syscall
           {
             node = req_int j "node";
             time = req_number j "time";
             label = req_string j "label";
           })
  | "send" ->
      Some
        (Trace.Send
           {
             node = req_int j "node";
             time = req_number j "time";
             msg_id = req_int j "msg_id";
             label = req_string j "label";
           })
  | "receive" ->
      Some
        (Trace.Receive
           {
             node = req_int j "node";
             time = req_number j "time";
             msg_id = req_int j "msg_id";
             label = req_string j "label";
           })
  | "drop" ->
      Some
        (Trace.Drop
           {
             node = req_int j "node";
             time = req_number j "time";
             reason = req_string j "reason";
           })
  | "link_change" ->
      Some
        (Trace.Link_change
           {
             u = req_int j "u";
             v = req_int j "v";
             up = req_bool j "up";
             time = req_number j "time";
           })
  | "custom" ->
      Some
        (Trace.Custom
           {
             time = req_number j "time";
             label = req_string j "label";
           })
  | _ -> None

let is_scalar = function Json.Arr _ | Json.Obj _ -> false | _ -> true

let classify = function
  | Json.Obj fields as j -> (
      if not (List.for_all (fun (_, v) -> is_scalar v) fields) then
        bad "nested values are not part of the schema-v2 vocabulary";
      match List.assoc_opt "type" fields with
      | Some (Json.Str "header") ->
          let sv = req_int j "schema_version" in
          if sv > Trace_export.schema_version then
            bad "stream schema_version %d is newer than this reader (%d)" sv
              Trace_export.schema_version;
          let kind = req_string j "kind" in
          let fields =
            List.filter
              (fun (k, _) ->
                k <> "type" && k <> "schema_version" && k <> "kind")
              fields
          in
          Header { schema_version = sv; kind; fields }
      | Some (Json.Str "truncated") ->
          Truncated
            {
              time = req_number j "time";
              dropped = req_int j "dropped";
              dropped_ring = req_int j "dropped_ring";
              dropped_sink = req_int j "dropped_sink";
            }
      | Some (Json.Str kind) -> (
          match event_of_record kind j with
          | Some e -> Event e
          | None -> Other { kind; fields })
      | _ -> bad "record has no string \"type\" field")
  | _ -> bad "a record must be a JSON object"

let parse_line s =
  match Json.parse s with
  | Error msg -> Error msg
  | Ok j -> ( match classify j with l -> Ok l | exception Bad msg -> Error msg)

(* -- files -------------------------------------------------------------- *)

let fold_file path ~init ~f =
  match
    In_channel.with_open_text path (fun ic ->
        let rec go acc lineno =
          match In_channel.input_line ic with
          | None -> Ok acc
          | Some raw ->
              (* writers end every record with '\n'; a partial final
                 line (killed writer) would fail to parse below *)
              if String.trim raw = "" then go acc (lineno + 1)
              else (
                match parse_line raw with
                | Ok l -> go (f acc ~lineno l) (lineno + 1)
                | Error msg ->
                    Error (Printf.sprintf "%s:%d: %s" path lineno msg))
        in
        go init 1)
  with
  | r -> r
  | exception Sys_error msg -> Error msg

let events_of_file path =
  Result.map List.rev
    (fold_file path ~init:[] ~f:(fun acc ~lineno:_ l ->
         match l with Event e -> e :: acc | _ -> acc))
