type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* -- reader ------------------------------------------------------------ *)

exception Fail of string * int

let fail msg pos = raise (Fail (msg, pos))

(* One cursor over the input; every parse_* consumes exactly its value
   and leaves the cursor after it.  Reading chars by index (no option
   per peek) keeps the trace-import hot path allocation-light. *)
type cursor = { src : string; mutable pos : int }

let at_end c = c.pos >= String.length c.src

let rec skip_ws c =
  if not (at_end c) then
    match String.unsafe_get c.src c.pos with
    | ' ' | '\t' | '\n' | '\r' ->
        c.pos <- c.pos + 1;
        skip_ws c
    | _ -> ()

let expect c ch =
  if (not (at_end c)) && c.src.[c.pos] = ch then c.pos <- c.pos + 1
  else fail (Printf.sprintf "expected %C" ch) c.pos

let parse_literal c word value =
  let len = String.length word in
  if
    c.pos + len <= String.length c.src
    && String.sub c.src c.pos len = word
  then begin
    c.pos <- c.pos + len;
    value
  end
  else fail (Printf.sprintf "expected %s" word) c.pos

let is_num_char = function
  | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
  | _ -> false

let parse_number c =
  let start = c.pos in
  while (not (at_end c)) && is_num_char (String.unsafe_get c.src c.pos) do
    c.pos <- c.pos + 1
  done;
  let s = String.sub c.src start (c.pos - start) in
  match float_of_string_opt s with
  | Some f -> Num f
  | None -> fail (Printf.sprintf "bad number %S" s) start

let hex_digit pos = function
  | '0' .. '9' as ch -> Char.code ch - Char.code '0'
  | 'a' .. 'f' as ch -> Char.code ch - Char.code 'a' + 10
  | 'A' .. 'F' as ch -> Char.code ch - Char.code 'A' + 10
  | _ -> fail "bad hex digit" pos

let add_utf8 buf code =
  if code < 0x80 then Buffer.add_char buf (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end

(* The slow path, entered at the first backslash: [buf] already holds
   the unescaped prefix. *)
let rec parse_escaped c buf =
  if at_end c then fail "unterminated string" c.pos;
  match c.src.[c.pos] with
  | '"' ->
      c.pos <- c.pos + 1;
      Buffer.contents buf
  | '\\' ->
      if c.pos + 1 >= String.length c.src then
        fail "unterminated escape" c.pos;
      let ch = c.src.[c.pos + 1] in
      c.pos <- c.pos + 2;
      (match ch with
      | '"' -> Buffer.add_char buf '"'
      | '\\' -> Buffer.add_char buf '\\'
      | '/' -> Buffer.add_char buf '/'
      | 'b' -> Buffer.add_char buf '\b'
      | 'f' -> Buffer.add_char buf '\012'
      | 'n' -> Buffer.add_char buf '\n'
      | 'r' -> Buffer.add_char buf '\r'
      | 't' -> Buffer.add_char buf '\t'
      | 'u' ->
          if c.pos + 4 > String.length c.src then
            fail "truncated \\u escape" c.pos;
          let d i = hex_digit c.pos c.src.[c.pos + i] in
          let code = (d 0 lsl 12) lor (d 1 lsl 8) lor (d 2 lsl 4) lor d 3 in
          c.pos <- c.pos + 4;
          add_utf8 buf code
      | _ -> fail "bad escape" (c.pos - 1));
      parse_escaped c buf
  | ch ->
      c.pos <- c.pos + 1;
      Buffer.add_char buf ch;
      parse_escaped c buf

(* Fast path: a string without escapes is one [String.sub]. *)
let parse_string c =
  expect c '"';
  let start = c.pos in
  let len = String.length c.src in
  let i = ref start in
  while
    !i < len
    && (match String.unsafe_get c.src !i with '"' | '\\' -> false | _ -> true)
  do
    incr i
  done;
  if !i >= len then fail "unterminated string" start;
  if c.src.[!i] = '"' then begin
    c.pos <- !i + 1;
    String.sub c.src start (!i - start)
  end
  else begin
    let buf = Buffer.create (!i - start + 16) in
    Buffer.add_substring buf c.src start (!i - start);
    c.pos <- !i;
    parse_escaped c buf
  end

(* After an element: [true] on ',', [false] on [close]. *)
let separator c close =
  skip_ws c;
  if at_end c then fail (Printf.sprintf "expected ',' or %C" close) c.pos;
  let ch = c.src.[c.pos] in
  c.pos <- c.pos + 1;
  if ch = ',' then true
  else if ch = close then false
  else fail (Printf.sprintf "expected ',' or %C" close) (c.pos - 1)

(* [true] (and the closer consumed) when the container is empty. *)
let empty c close =
  skip_ws c;
  if (not (at_end c)) && c.src.[c.pos] = close then begin
    c.pos <- c.pos + 1;
    true
  end
  else false

let rec parse_value c =
  skip_ws c;
  if at_end c then fail "unexpected end of input" c.pos;
  match c.src.[c.pos] with
  | '{' ->
      c.pos <- c.pos + 1;
      if empty c '}' then Obj []
      else
        let rec members acc =
          skip_ws c;
          let key = parse_string c in
          skip_ws c;
          expect c ':';
          let acc = (key, parse_value c) :: acc in
          if separator c '}' then members acc else Obj (List.rev acc)
        in
        members []
  | '[' ->
      c.pos <- c.pos + 1;
      if empty c ']' then Arr []
      else
        let rec elements acc =
          let acc = parse_value c :: acc in
          if separator c ']' then elements acc else Arr (List.rev acc)
        in
        elements []
  | '"' -> Str (parse_string c)
  | 't' -> parse_literal c "true" (Bool true)
  | 'f' -> parse_literal c "false" (Bool false)
  | 'n' -> parse_literal c "null" Null
  | ch when is_num_char ch -> parse_number c
  | ch -> fail (Printf.sprintf "unexpected character %C" ch) c.pos

let parse src =
  let c = { src; pos = 0 } in
  match parse_value c with
  | value ->
      skip_ws c;
      if at_end c then Ok value
      else Error (Printf.sprintf "trailing garbage at byte %d" c.pos)
  | exception Fail (msg, pos) ->
      Error (Printf.sprintf "%s at byte %d" msg pos)

(* -- accessors --------------------------------------------------------- *)

let member key = function
  | Obj fields -> (
      match List.assoc_opt key fields with
      | Some v -> Ok v
      | None -> Error (Printf.sprintf "missing field %S" key))
  | _ -> Error (Printf.sprintf "expected an object around %S" key)

let to_float = function
  | Num f -> Ok f
  | _ -> Error "expected a number"

let to_int = function
  | Num f when Float.is_integer f -> Ok (int_of_float f)
  | Num _ -> Error "expected an integer"
  | _ -> Error "expected a number"

let to_string = function
  | Str s -> Ok s
  | _ -> Error "expected a string"

let to_list = function
  | Arr l -> Ok l
  | _ -> Error "expected an array"

let to_bool = function
  | Bool b -> Ok b
  | _ -> Error "expected a boolean"

(* -- writer ------------------------------------------------------------ *)

let quote s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | ch when Char.code ch < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code ch))
      | ch -> Buffer.add_char buf ch)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let number f =
  let f =
    if Float.is_finite f then f
    else if Float.is_nan f then 0.0
    else Float.copy_sign max_float f
  in
  Printf.sprintf "%.12g" f
