type t = {
  queue : (unit -> unit) Heap.t;
  mutable clock : float;
  mutable executed : int;
}

type outcome = Quiescent | Time_limit | Event_limit

let create ?queue_capacity () =
  {
    queue = Heap.create ?capacity:queue_capacity ();
    clock = 0.0;
    executed = 0;
  }

let now t = t.clock
let events_processed t = t.executed
let pending t = Heap.length t.queue

let reset t =
  Heap.clear t.queue;
  t.clock <- 0.0;
  t.executed <- 0

let schedule_at t ~time f =
  (* negated so a NaN time is refused too: the queue orders by [<] *)
  if not (time >= t.clock) then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: time %g is before now %g" time
         t.clock);
  Heap.push t.queue time f

let schedule t ~delay f =
  if delay < 0.0 then invalid_arg "Engine.schedule: negative delay";
  schedule_at t ~time:(t.clock +. delay) f

let step t =
  if Heap.is_empty t.queue then false
  else begin
    let time = Heap.min_prio t.queue in
    let f = Heap.pop_min t.queue in
    t.clock <- time;
    t.executed <- t.executed + 1;
    f ();
    true
  end

(* One heap walk per event: the O(1) root read decides the horizon,
   then a single pop executes — no second O(log n) traversal and no
   option/tuple allocation per event.  An empty queue terminates as
   [Quiescent] before the budget is consulted, so a drained queue can
   never burn the remaining event budget into [Event_limit]. *)
let run ?until ?max_events t =
  let budget = ref (match max_events with None -> max_int | Some m -> m) in
  let horizon = match until with None -> infinity | Some u -> u in
  let rec loop () =
    if Heap.is_empty t.queue then Quiescent
    else if !budget <= 0 then Event_limit
    else
      let time = Heap.min_prio t.queue in
      if time > horizon then begin
        t.clock <- horizon;
        Time_limit
      end
      else begin
        let f = Heap.pop_min t.queue in
        t.clock <- time;
        t.executed <- t.executed + 1;
        decr budget;
        f ();
        loop ()
      end
  in
  loop ()
