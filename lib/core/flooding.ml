module Network = Hardware.Network
module Graph = Netgraph.Graph

type msg =
  | Data of { origin : int; attempt : int }
  | Ack of { src : int }

let forward ctx ~except m =
  let self = Network.self ctx in
  let net = Network.network ctx in
  let forwarded = ref 0 in
  (* -1 names no peer, so the per-neighbour test is an int compare
     that allocates nothing *)
  let except = match except with Some p -> p | None -> -1 in
  (* allocation-free scan of the up links; same increasing-peer order
     as the old [Network.neighbors] list *)
  Network.iter_active_neighbors net self (fun peer ->
      if peer <> except then begin
        incr forwarded;
        Network.send_walk ~label:"flood" ctx ~walk:[| self; peer |] m
      end);
  if !forwarded > 0 then
    match Network.registry (Network.network ctx) with
    | Some r when Hardware.Registry.enabled r ->
        Hardware.Registry.add
          (Hardware.Registry.counter r "flood.forwards") !forwarded
    | _ -> ()

(* [ack_tree] (recovery only) is a BFS tree of the root's view: the
   tree the echoes converge over. *)
let spec ?recovery ?ack_tree ~reached ~view:_ v =
  let seen_attempt = ref (-1) in
  {
    Network.on_start =
      (fun ctx ->
        (* the root has seen its own attempt: an echo must not make
           it forward the same attempt a second time *)
        let send attempt =
          seen_attempt := attempt;
          forward ctx ~except:None (Data { origin = Network.self ctx; attempt })
        in
        send 0;
        match recovery with
        | None -> ()
        | Some st ->
            Broadcast.Recovery.start st ctx ~tree:(Option.get ack_tree)
              ~resend:(fun ~attempt -> send attempt));
    on_message =
      (fun ctx ~via m ->
        match m with
        | Data d ->
            reached.(v) <- true;
            if d.attempt > !seen_attempt then begin
              seen_attempt := d.attempt;
              forward ctx ~except:via m;
              match recovery with
              | Some st ->
                  Broadcast.Recovery.delivered st ctx ~label:"flood-ack"
                    (Ack { src = v })
              | None -> ()
            end
        | Ack { src } -> (
            match recovery with
            | Some st ->
                Broadcast.Recovery.echo st ctx ~label:"flood-ack" ~src
                  (Ack { src = v })
            | None -> ()));
    on_link_change = (fun _ ~peer:_ ~up:_ -> ());
  }

let run ?(config = Broadcast.default_config ()) ~graph ~root () =
  let recovery = Broadcast.Recovery.create config ~n:(Graph.n graph) ~root in
  let ack_tree =
    match recovery with
    | None -> None
    | Some _ ->
        let view = Option.value ~default:graph config.Broadcast.view in
        Some (Netgraph.Spanning.bfs_tree view ~root)
  in
  Broadcast.execute ~config ~graph ~root ~spec:(spec ?recovery ?ack_tree) ()
