(** A mutable binary min-heap over float priorities.

    The event queue of the discrete-event engine, keyed by simulated
    time.  Entries with equal priority are popped in insertion order
    (the heap is made stable by an internal sequence number), which
    gives the simulator deterministic FIFO tie-breaking.  Priorities,
    sequence numbers and values are kept in parallel arrays, so a push
    allocates nothing once the arrays have grown.  Priorities must not
    be NaN. *)

type 'v t

val create : ?capacity:int -> unit -> 'v t
(** [create ()] returns an empty heap.  [capacity] is a hint: the
    first push allocates room for that many entries at once instead of
    growing by doubling from 16 — replica loops with a known
    event-queue ceiling avoid the regrowth copies.
    @raise Invalid_argument if [capacity] is negative. *)

val length : 'v t -> int
(** Number of entries currently in the heap. *)

val is_empty : 'v t -> bool

val push : 'v t -> float -> 'v -> unit
(** [push h p v] inserts value [v] with priority [p]. *)

val peek : 'v t -> (float * 'v) option
(** [peek h] returns the minimum entry without removing it. *)

val min_prio : 'v t -> float
(** [min_prio h] is the priority of the minimum entry — O(1) and
    allocation-free, the hot-loop companion of {!pop_min}.
    @raise Invalid_argument on an empty heap. *)

val pop : 'v t -> (float * 'v) option
(** [pop h] removes and returns the minimum entry.  Among entries with
    equal priority, the one pushed first is returned first. *)

val pop_min : 'v t -> 'v
(** [pop_min h] removes the minimum entry and returns its value only:
    one O(log n) walk and no option/tuple allocation.  Same order as
    {!pop}.
    @raise Invalid_argument on an empty heap. *)

val clear : 'v t -> unit
(** Remove all entries and reset the FIFO tie-break sequence.  The
    backing arrays are retained so subsequent pushes reuse the grown
    allocation; values from before the clear may stay reachable until
    overwritten. *)

val to_sorted_list : 'v t -> (float * 'v) list
(** Non-destructively list all entries in pop order (costly; testing
    aid). *)
