(** ARPANET-style flooding broadcast (the baseline of [MRR80]).

    On its first receipt of the message each node forwards it over
    every active incident link except the one it arrived on.  Under
    the traditional measure this is the standard O(m)-message,
    O(diameter)-time broadcast; under the new measure every forwarded
    copy still costs a full system call at the receiving NCU, so the
    system-call complexity stays Θ(m) — the paper's motivation for
    the branching-paths scheme. *)

type msg =
  | Data of { origin : int; attempt : int }
      (** the flooded payload; [attempt] > 0 marks a retransmission
          wave (each node floods once per attempt) *)
  | Ack of { src : int }
      (** recovery only: [src]'s echo to its parent in a BFS tree of the
          root's view — [src] and its whole subtree hold the payload *)

val spec :
  ?recovery:Broadcast.Recovery.t ->
  ?ack_tree:Netgraph.Tree.t ->
  reached:bool array ->
  view:Netgraph.Graph.t ->
  int ->
  msg Hardware.Network.handlers
(** Low-level handler factory, for embedding in custom harnesses.
    [ack_tree] must accompany [recovery]: the tree echoes converge over. *)

val run :
  ?config:Broadcast.config ->
  graph:Netgraph.Graph.t ->
  root:int ->
  unit ->
  Broadcast.result
(** When [config.recover] is set the flood self-heals: accepted
    attempts are echoed up a BFS tree of the view (one echo per tree
    link), and the root re-floods under capped exponential backoff
    until the whole tree has echoed or the retry budget is spent
    (DESIGN.md §16).  Each re-flood is whole: relays forward every
    attempt to every neighbour, so a resend aimed at one silent
    subtree would reach the whole graph anyway. *)
