(** Paper-bound runtime monitors.

    The paper's results are quantitative — exactly [n] system calls
    and at most [1 + log₂ n] time per branching-paths broadcast
    (Theorem 2), at most [6n] system calls per election (Theorem 5),
    [dmax]-bounded headers (§2), FIFO links (§2).  These monitors turn
    those bounds into machine-checked assertions over a finished
    simulation's metrics and trace, so every CLI run, bench run and CI
    job re-verifies the theorems instead of trusting hand-written test
    constants.

    Each checker produces a {!report}; {!enforce} then applies the
    chosen {!mode}: [Warn] prints violations and carries on, [Fail]
    raises {!Violation} — the mode CI runs in. *)

type mode = Off | Warn | Fail

type report = {
  monitor : string;  (** e.g. ["theorem2"] *)
  ok : bool;
  detail : string;  (** human-readable bound vs observed *)
}

exception Violation of report list
(** Raised by {!enforce} in [Fail] mode; carries every failed report. *)

(** {1 The paper's bounds as checkers} *)

val theorem2_broadcast :
  ?p:float -> n:int -> syscalls:int -> time:float -> unit -> report
(** Theorem 2 for one branching-paths broadcast on an [n]-node
    network: exactly [n] system calls (one NCU activation per node,
    counting the root's trigger) and completion within
    [(2 + log₂ n) · P] — the theorem's [1 + log₂ n] broadcast units
    plus the one triggering activation the harness charges.  [p]
    (default [1.]) is the cost model's software delay bound. *)

val echo_depth : Netgraph.Tree.t -> int
(** The longest wait a tree echo can meet: the maximum, over
    root-to-leaf paths, of the summed child counts of the path's inner
    nodes.  Each inner node may process all its children's echoes
    before forwarding its own, one software delay apiece.  Equals the
    height on a path, twice the height on a complete binary tree and
    [n - 1] on a star. *)

val theorem2_recovering :
  ?p:float ->
  n:int ->
  echo_depth:int ->
  syscalls:int ->
  hops:int ->
  time:float ->
  unit ->
  report
(** Theorem 2 with the recovery layer's tree echo (DESIGN.md §16), for
    one fault-free recovering branching-paths broadcast whose tree has
    the given {!echo_depth}: exactly [2n - 1] system calls and
    [2(n - 1)] hops (the broadcast's [n] and [n - 1] plus one one-hop
    echo per non-root node), and completion within
    [(2 + log₂ n + echo_depth) · P].  The time bound holds because
    echoes never delay the broadcast (a node's children echo only
    after it received the payload), every leaf echoes within the
    broadcast's [(2 + log₂ n) · P], and a node with [k] children is
    done [k · P] after the later of that bound and its last child's
    echo. *)

val election_budget : n:int -> election_syscalls:int -> report
(** Theorem 5: at most [6n] election system calls. *)

val dmax_ceiling : dmax:int -> max_header:int -> report
(** §2: no injected header may exceed [dmax] elements. *)

val fifo_per_link : Sim.Trace.t -> report
(** §2 link model: hop completions on each directed link appear in
    non-decreasing time order — the switching hardware never reorders
    a link's packets.  Needs an enabled trace; an empty or disabled
    trace passes vacuously. *)

val one_way_delivery : n:int -> syscalls:int -> report
(** The one-way property underlying Theorem 1: a one-way broadcast
    activates no NCU twice, so system calls never exceed [n] even
    under failures (coverage may be partial). *)

(** {1 Enforcement} *)

val enforce : ?out:Format.formatter -> mode -> report list -> report list
(** Returns the failed reports.  [Warn] additionally prints each
    failure to [out] (default [Format.err_formatter]); [Fail] raises
    {!Violation} if any failed; [Off] does nothing but still returns
    them. *)

val pp_report : Format.formatter -> report -> unit
val mode_of_string : string -> mode option
val mode_to_string : mode -> string
