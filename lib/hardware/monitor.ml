type mode = Off | Warn | Fail
type report = { monitor : string; ok : bool; detail : string }

exception Violation of report list

let log2 x = log x /. log 2.0

let theorem2_broadcast ?(p = 1.0) ~n ~syscalls ~time () =
  let bound = (2.0 +. log2 (float_of_int n)) *. p in
  let syscalls_ok = syscalls = n in
  let time_ok = time <= bound +. 1e-9 in
  {
    monitor = "theorem2";
    ok = syscalls_ok && time_ok;
    detail =
      Printf.sprintf
        "n=%d: syscalls %d (want exactly %d), time %g (want <= %g = (2 + log2 n)*P)"
        n syscalls n time bound;
  }

(* One preorder pass: a node's weight is its parent's plus the
   parent's child count, the echoes that may queue ahead of it there. *)
let echo_depth tree =
  let module T = Netgraph.Tree in
  let depth = Hashtbl.create (T.size tree) in
  List.fold_left
    (fun acc v ->
      let d =
        match T.parent tree v with
        | None -> 0
        | Some p -> Hashtbl.find depth p + List.length (T.children tree p)
      in
      Hashtbl.replace depth v d;
      max acc d)
    0 (T.nodes tree)

let theorem2_recovering ?(p = 1.0) ~n ~echo_depth ~syscalls ~hops ~time () =
  let bound = (2.0 +. log2 (float_of_int n) +. float_of_int echo_depth) *. p in
  let want_syscalls = (2 * n) - 1 and want_hops = 2 * (n - 1) in
  {
    monitor = "theorem2-recovering";
    ok = syscalls = want_syscalls && hops = want_hops && time <= bound +. 1e-9;
    detail =
      Printf.sprintf
        "n=%d: syscalls %d (want exactly %d), hops %d (want exactly %d), time \
         %g (want <= %g = (2 + log2 n + echo depth %d)*P)"
        n syscalls want_syscalls hops want_hops time bound echo_depth;
  }

let election_budget ~n ~election_syscalls =
  {
    monitor = "election-6n";
    ok = election_syscalls <= 6 * n;
    detail =
      Printf.sprintf "n=%d: election syscalls %d (Theorem 5 bound %d)" n
        election_syscalls (6 * n);
  }

let dmax_ceiling ~dmax ~max_header =
  {
    monitor = "dmax";
    ok = max_header <= dmax;
    detail =
      Printf.sprintf "max header %d elements (dmax %d)" max_header dmax;
  }

let fifo_per_link trace =
  (* Hop completions per directed link must be chronological in trace
     (= recording) order; the trace is already chronological overall,
     so one pass with a per-link clock suffices. *)
  let clocks = Hashtbl.create 64 in
  let violation = ref None in
  List.iter
    (fun e ->
      match e with
      | Sim.Trace.Hop { src; dst; time; _ } -> (
          if !violation = None then
            match Hashtbl.find_opt clocks (src, dst) with
            | Some last when time < last ->
                violation :=
                  Some
                    (Printf.sprintf
                       "link %d->%d: hop at %g completed after one at %g" src
                       dst time last)
            | _ -> Hashtbl.replace clocks (src, dst) time)
      | _ -> ())
    (Sim.Trace.events trace);
  {
    monitor = "fifo-per-link";
    ok = !violation = None;
    detail =
      (match !violation with
      | None ->
          Printf.sprintf "hop order FIFO on all %d directed links"
            (Hashtbl.length clocks)
      | Some v -> v);
  }

let one_way_delivery ~n ~syscalls =
  {
    monitor = "one-way";
    ok = syscalls <= n;
    detail =
      Printf.sprintf "n=%d: %d syscalls (a one-way broadcast makes <= n)" n
        syscalls;
  }

let pp_report ppf r =
  Format.fprintf ppf "[%s] %s: %s"
    (if r.ok then "ok" else "VIOLATION")
    r.monitor r.detail

let mode_to_string = function Off -> "off" | Warn -> "warn" | Fail -> "fail"

let mode_of_string = function
  | "off" -> Some Off
  | "warn" -> Some Warn
  | "fail" -> Some Fail
  | _ -> None

let enforce ?(out = Format.err_formatter) mode reports =
  let failed = List.filter (fun r -> not r.ok) reports in
  (match mode with
  | Off -> ()
  | Warn ->
      List.iter (fun r -> Format.fprintf out "monitor %a@." pp_report r) failed
  | Fail -> if failed <> [] then raise (Violation failed));
  failed
