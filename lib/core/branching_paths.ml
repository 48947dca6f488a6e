module Graph = Netgraph.Graph
module Tree = Netgraph.Tree
module Network = Hardware.Network

type msg =
  | Data of { origin : int; labelling : Labels.t; attempt : int }
      (** the broadcast payload; [attempt] > 0 marks a retransmission
          (relays forward once per attempt, acceptance is idempotent) *)
  | Ack of { src : int }
      (** recovery only: [src]'s echo to its tree parent — [src] and
          its whole subtree hold the payload *)

let tree_for ~view ~root = Netgraph.Spanning.bfs_tree view ~root

let predicted_time_units tree = Labels.max_path_depth (Labels.compute tree)

(* Registry lookups happen only on protocol events (one per relaying
   node), never on the per-hop path, so by-name registration here is
   within the fast-path budget. *)
let publish_paths ctx k =
  if k > 0 then
    match Network.registry (Network.network ctx) with
    | Some r when Hardware.Registry.enabled r ->
        Hardware.Registry.add
          (Hardware.Registry.counter r "bpaths.paths_sent") k
    | _ -> ()

(* The sends leaving one head: over pre-compiled routes when a route
   table is supplied, else walks compiled per send — the table holds
   exactly the routes [send_walk] would compile, in [paths_from] order,
   so both arms produce the same packets.  [resend] is the recovery
   state on a retransmission: only the chains whose first hop — a tree
   child of the head — has not echoed go out again, since an echoed
   child's whole subtree holds the payload. *)
let sends_for ctx ~routes ~resend labelling m =
  let self = Network.self ctx in
  let sends =
    match routes with
    | Some table ->
        Array.to_list
          (Array.map
             (fun route () -> Network.send ~label:"bpaths" ctx ~route m)
             table.(self))
    | None ->
        List.map
          (fun path () ->
            Network.send_walk ~label:"bpaths" ~copy_at:(fun _ -> true) ctx
              ~walk:(Array.of_list path) m)
          (Labels.paths_from labelling self)
  in
  match resend with
  | None -> sends
  | Some st ->
      List.filter_map
        (fun (path, send) ->
          match path with
          | _ :: child :: _ when Broadcast.Recovery.echoed st child -> None
          | _ -> Some send)
        (List.combine (Labels.paths_from labelling self) sends)

let send_paths ~multicast ctx sends =
  publish_paths ctx (List.length sends);
  match sends with
  | [] -> ()
  | sends when multicast ->
      (* one activation ships every path: they leave through distinct
         child links, which the PARIS primitive covers *)
      List.iter (fun s -> s ()) sends
  | first :: rest ->
      (* ablation: no multicast primitive - each further path needs its
         own software activation *)
      first ();
      let rec drain = function
        | [] -> ()
        | s :: more ->
            Network.set_timer ~label:"bpaths-extra" ctx ~delay:0.0 (fun () ->
                s ();
                drain more)
      in
      drain rest

(* One attempt from the root; a toplevel function, so attempt 0 with
   recovery off allocates no closure for it. *)
let root_send ~multicast ~routes ~resend ctx labelling attempt =
  let m = Data { origin = Network.self ctx; labelling; attempt } in
  send_paths ~multicast ctx (sends_for ctx ~routes ~resend labelling m)

let spec ?precomputed ?routes ?recovery ~multicast ~reached ~view v =
  let relayed_attempt = ref (-1) in
  {
    Network.on_start =
      (fun ctx ->
        let root = Network.self ctx in
        let labelling =
          match precomputed with
          | Some l -> l
          | None -> Labels.compute (tree_for ~view ~root)
        in
        root_send ~multicast ~routes ~resend:None ctx labelling 0;
        match recovery with
        | None -> ()
        | Some st ->
            Broadcast.Recovery.start st ctx ~tree:(Labels.tree labelling)
              ~resend:(fun ~attempt ->
                root_send ~multicast ~routes ~resend:recovery ctx labelling
                  attempt));
    on_message =
      (fun ctx ~via:_ m ->
        match m with
        | Data d ->
            reached.(v) <- true;
            if d.attempt > !relayed_attempt then begin
              relayed_attempt := d.attempt;
              (* the message shares the root's labelling: every relay
                 would recompute the identical decomposition from the
                 same tree description, so the paper's "tree description
                 in the message" is carried as the decomposition itself *)
              let resend = if d.attempt = 0 then None else recovery in
              send_paths ~multicast ctx
                (sends_for ctx ~routes ~resend d.labelling m);
              match recovery with
              | None -> ()
              | Some st ->
                  Broadcast.Recovery.delivered st ctx ~label:"bpaths-ack"
                    (Ack { src = v })
            end
        | Ack { src } -> (
            match recovery with
            | Some st ->
                Broadcast.Recovery.echo st ctx ~label:"bpaths-ack" ~src
                  (Ack { src = v })
            | None -> ()));
    on_link_change = (fun _ ~peer:_ ~up:_ -> ());
  }

let run ?(config = Broadcast.default_config ()) ?(multicast = true) ?precomputed
    ?routes ~graph ~root () =
  let recovery = Broadcast.Recovery.create config ~n:(Graph.n graph) ~root in
  Broadcast.execute ~config ~graph ~root
    ~spec:(spec ?precomputed ?routes ?recovery ~multicast)
    ()
