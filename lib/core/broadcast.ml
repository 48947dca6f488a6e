module Graph = Netgraph.Graph
module Cost_model = Hardware.Cost_model
module Network = Hardware.Network
module Metrics = Hardware.Metrics

type result = {
  time : float;
  syscalls : int;
  hops : int;
  sends : int;
  drops : int;
  max_header : int;
  reached : bool array;
}

let coverage r = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 r.reached
let all_reached r = Array.for_all Fun.id r.reached

type config = {
  cost : Cost_model.t;
  failed : (int * int) list;
  dmax : int option;
  view : Graph.t option;
  trace : Sim.Trace.t option;
  registry : Hardware.Registry.t option;
  chaos : Hardware.Fault_plan.t option;
  recover : Hardware.Recover.t option;
}

let default_config () =
  {
    cost = Cost_model.new_model ();
    failed = [];
    dmax = None;
    view = None;
    trace = None;
    registry = None;
    chaos = None;
    recover = None;
  }

(* Echo/retransmit state shared by the recovering broadcast algorithms
   (DESIGN.md §16).  Acknowledgement is a convergecast over the
   broadcast tree, §5's optimal way to gather one bit from every node:
   a node echoes once to its tree parent when it holds the payload and
   every child has echoed, so a fault-free run costs n-1 one-hop
   echoes.  The root's watchdog retransmits — attempt-tagged, so
   relays forward once per attempt and acceptance stays at-most-once —
   under capped exponential backoff until all of the root's children
   echoed or the retry budget is spent.  A counted child's whole
   subtree holds the payload, so the algorithms resend only towards
   children that have not echoed ([echoed]).  Everything
   is ordinary engine events and the backoff jitter comes from the
   root's own split stream, so traces stay byte-identical at any
   [--jobs]. *)
module Recovery = struct
  module Registry = Hardware.Registry
  module Recover = Hardware.Recover
  module Tree = Netgraph.Tree

  type t = {
    rc : Recover.t;
    obs : Recover.obs option;
    root : int;
    mutable tree : Tree.t;  (* the broadcast tree, set by [start] *)
    holds : bool array;  (* [v] holds the payload *)
    counted : bool array;  (* [v]'s echo was counted by its parent *)
    waiting : int array;  (* children of [v] yet to echo; -1 = not counted yet *)
    mutable attempt : int;
    mutable dog : Sim.Timer.t option;
    rng : Sim.Rng.t;  (* the root's jitter stream *)
  }

  let create config ~n ~root =
    match config.recover with
    | None -> None
    | Some rc ->
        let holds = Array.make n false in
        holds.(root) <- true;
        Some
          {
            rc;
            obs = Recover.obs config.registry;
            root;
            tree = Tree.singleton root;
            holds;
            counted = Array.make n false;
            waiting = Array.make n (-1);
            attempt = 0;
            dog = None;
            rng = (Recover.streams rc ~n).(root);
          }

  let complete st = st.waiting.(st.root) = 0
  let echoed st v = st.counted.(v)

  (* children of [v] whose echo has not arrived, counted on first use *)
  let waiting st v =
    let w = st.waiting.(v) in
    if w >= 0 then w
    else begin
      let w = List.length (Tree.children st.tree v) in
      st.waiting.(v) <- w;
      w
    end

  let cancel_dog st =
    match st.dog with Some d -> Sim.Timer.cancel d | None -> ()

  (* [v] holds the payload and its whole subtree has echoed: echo over
     the one tree link to the parent or, at the root, stop the watchdog,
     so a fault-free run never sees an expiry. *)
  let echo_up st ctx ~label ack =
    let v = Network.self ctx in
    match Tree.parent st.tree v with
    | Some p -> Network.send_walk ~label ctx ~walk:[| v; p |] ack
    | None -> cancel_dog st

  let delivered st ctx ~label ack =
    let v = Network.self ctx in
    st.holds.(v) <- true;
    (* an echo already sent goes again: a new attempt means some echo
       never reached the root, and this one may be it *)
    if Tree.mem st.tree v && waiting st v = 0 then echo_up st ctx ~label ack

  let echo st ctx ~label ~src ack =
    (match st.obs with Some o -> Registry.incr o.Recover.r_acks | None -> ());
    if not st.counted.(src) then begin
      st.counted.(src) <- true;
      let v = Network.self ctx in
      let w = waiting st v - 1 in
      st.waiting.(v) <- w;
      if w = 0 && st.holds.(v) then echo_up st ctx ~label ack
    end

  (* Root side, from on_start: arm the watchdog loop, unless the root
     has no children to wait for.  Expiry [k] (0-based) retransmits as
     attempt [k+1] and re-arms with the next backoff delay until the
     budget is spent. *)
  let start st ctx ~tree ~resend =
    st.tree <- tree;
    if waiting st st.root > 0 then begin
      let dog = Network.watchdog ctx in
      st.dog <- Some dog;
      let rec arm () =
        let delay = Recover.delay st.rc ~rng:st.rng ~attempt:st.attempt in
        (match st.obs with
        | Some o -> Registry.observe o.Recover.r_backoff delay
        | None -> ());
        Network.arm_watchdog ~label:"bcast-watchdog" ctx dog ~delay (fun () ->
            if not (complete st) then begin
              (match st.obs with
              | Some o -> Registry.incr o.Recover.r_timeouts
              | None -> ());
              if st.attempt >= st.rc.Recover.max_retries then (
                match st.obs with
                | Some o -> Registry.incr o.Recover.r_give_ups
                | None -> ())
              else begin
                st.attempt <- st.attempt + 1;
                (match st.obs with
                | Some o -> Registry.incr o.Recover.r_retransmits
                | None -> ());
                resend ~attempt:st.attempt;
                arm ()
              end
            end)
      in
      arm ()
    end
end

type 'msg spec =
  reached:bool array -> view:Graph.t -> int -> 'msg Network.handlers

let execute ~config ~graph ~root ~spec () =
  (* queue peak is bounded by in-flight packets, itself O(n) for every
     broadcast here; the hint saves the doubling regrowth per replica *)
  let engine = Sim.Engine.create ~queue_capacity:(Graph.n graph) () in
  (* no caller-supplied trace means nobody can observe one: run with
     recording off rather than materialising the whole run in RAM *)
  let trace =
    match config.trace with Some t -> t | None -> Sim.Trace.disabled ()
  in
  let view = Option.value ~default:graph config.view in
  let reached = Array.make (Graph.n graph) false in
  let net =
    Network.create ~trace ?registry:config.registry ?dmax:config.dmax ~engine
      ~cost:config.cost ~graph ~handlers:(spec ~reached ~view) ()
  in
  List.iter (fun (u, v) -> Network.preset_link net u v ~up:false) config.failed;
  (match config.chaos with
  | Some plan -> Hardware.Fault_plan.arm net plan
  | None -> ());
  reached.(root) <- true;
  Network.start ~label:"broadcast-start" net root;
  (match Sim.Engine.run engine with
  | Sim.Engine.Quiescent -> ()
  | Sim.Engine.Time_limit | Sim.Engine.Event_limit ->
      (* unreachable: no horizon/budget given *)
      assert false);
  Network.publish net;
  let m = Network.metrics net in
  (* completion = the last NCU activation finishing; taken from the
     network's busy-until marks so it holds with tracing off or
     streaming (a trace fold would see an empty ring) *)
  let time = Network.last_activation_time net in
  {
    time;
    syscalls = Metrics.syscalls m;
    hops = Metrics.hops m;
    sends = Metrics.sends m;
    drops = Metrics.drops m;
    max_header = Metrics.max_header m;
    reached;
  }
