(* The closed-loop driver: set up a workload's network, then tick —
   inject the tick's stimuli, run the simulation to the tick's end (every
   cascade, message and firing of the tick quiesces inside it) — and
   verify the outputs against the generator's model. *)

open Xchange
open Common

(* Every message any host sends, counted per sender and, when the run's
   output digest is compared with another run's, folded into one rolling
   digest per sender (each host sends only from the domain that owns
   it, so the folds never race).  Installed as the network's drop
   predicate, which sees each message exactly once and never drops.
   Digesting hashes every payload, so plain timed runs only count. *)
module Wire = struct
  type cell = { mutable digest : int; mutable count : int }
  type t = { digesting : bool; cells : (string, cell) Hashtbl.t }

  let create ~digesting hosts : t =
    let cells = Hashtbl.create 64 in
    List.iter (fun h -> Hashtbl.replace cells h { digest = 0; count = 0 }) ("external" :: hosts);
    { digesting; cells }

  let message_hash (m : Message.t) =
    let body =
      match m.Message.body with
      | Message.Event e ->
          Hashtbl.hash (e.Event.id, e.Event.label, e.Event.occurred_at, Term.digest e.Event.payload)
      | _ -> Hashtbl.hash (Term.digest (Message.to_term m))
    in
    Hashtbl.hash (m.Message.msg_id, m.Message.to_host, m.Message.sent_at, body)

  let observe (t : t) (m : Message.t) =
    (match Hashtbl.find_opt t.cells m.Message.from_host with
    | Some c ->
        if t.digesting then c.digest <- Hashtbl.hash (c.digest, message_hash m);
        c.count <- c.count + 1
    | None -> ());
    false

  let sent (t : t) host = match Hashtbl.find_opt t.cells host with Some c -> c.count | None -> 0

  let digest (t : t) =
    if not t.digesting then invalid_arg "Wire.digest: set up without ~digest:true";
    Hashtbl.fold (fun h c acc -> (h, c.digest, c.count) :: acc) t.cells [] |> List.sort compare
end

type live = {
  w : Common.t;
  net : Network.t;
  nodes : Node.t list;
  registries : Pubsub.Registry.t list;
  wire : Wire.t;
  gen : gen;
  mutable tick : int;
  mutable stimuli : int;
}

(* Build the network and every node, compile rule sets, load stores and
   registers: everything up to the first stimulus.  [digest] makes the
   run's output digest available ({!digest}); [episode] picks the
   generator's stream. *)
let setup ?snapshot_every ?domains ?(digest = false) ?(episode = 0) (w : Common.t) =
  (* identical id streams in every set-up: lanes and fallback ids replay *)
  Event.reset_ids ();
  Message.reset_ids ();
  let hosts = List.map (fun h -> h.host) w.hosts in
  let wire = Wire.create ~digesting:digest hosts in
  let domains = Option.value ~default:w.domains domains in
  let net = Network.create ~domains ~drop:(Wire.observe wire) () in
  let provisioned = List.map (provision ?snapshot_every) w.hosts in
  List.iter (fun (n, _) -> Network.add_node_exn net n) provisioned;
  {
    w;
    net;
    nodes = List.map fst provisioned;
    registries = List.filter_map snd provisioned;
    wire;
    gen = w.gen episode;
    tick = 0;
    stimuli = 0;
  }

(* One driver tick: the stimuli injected and the wall time of injecting
   them and running the network to the tick's end (input generation is
   the benchmark's own work and is not timed). *)
let tick ?(drain = false) l =
  let stims = l.gen.next_tick ~drain in
  let t0 = now_ns () in
  List.iter
    (fun s -> Network.inject l.net ~sender:s.sender ~to_:s.to_ ~label:s.label s.payload)
    stims;
  l.tick <- l.tick + 1;
  Network.run l.net ~until:(l.tick * l.w.tick_ms);
  let ms = ms_since t0 in
  let n = List.length stims in
  l.stimuli <- l.stimuli + n;
  (n, ms)

let drain l =
  for _ = 1 to l.w.drain_ticks do
    ignore (tick ~drain:true l)
  done

(* ------------------------------------------------------------------ *)
(* Verification *)

type verdict = {
  checks : (string * int * int) list;  (** name, expected, observed *)
  rule_errors : int;
  fetch_failures : int;  (** fetch timeouts + fallback misses *)
  undelivered : int;  (** dropped or still in flight after the drain *)
  failed : int;
}

let verify l =
  let expected = l.gen.expected () in
  let observed = l.w.observe l.net ~sent:(Wire.sent l.wire) in
  let checks =
    List.map
      (fun (name, e) -> (name, e, Option.value ~default:(-1) (List.assoc_opt name observed)))
      expected
  in
  let mismatches = List.fold_left (fun acc (_, e, o) -> acc + abs (e - o)) 0 checks in
  let rule_errors = List.fold_left (fun acc n -> acc + List.length (Node.errors n)) 0 l.nodes in
  let fetch_failures =
    Network.fallback_misses l.net
    + List.fold_left
        (fun acc h -> acc + (Network.node_stats l.net h).Network.fetch_timeouts)
        0 (Network.hosts l.net)
  in
  let ts = Network.transport_stats l.net in
  let in_flight =
    int_of_float (Obs.Metrics.total (Network.metrics_snapshot l.net) "transport.in_flight")
  in
  let undelivered = ts.Transport.dropped + in_flight in
  { checks; rule_errors; fetch_failures; undelivered; failed = mismatches + rule_errors + fetch_failures + undelivered }

(* Firings, the message trace and every store, as one digest: equal
   digests mean bit-identical observable outputs.  The run must have
   been set up with [~digest:true]. *)
let digest l =
  let firings = List.map (fun n -> (Node.host n, Node.firings n)) l.nodes in
  let stores = List.map (fun n -> Term.digest (Store.snapshot (Node.store n))) l.nodes in
  let rules = List.map (fun n -> Engine.stats (Node.engine n) |> List.map (fun (r, s) -> (r, s.Eca.firings))) l.nodes in
  Digest.to_hex (Digest.string (Marshal.to_string (firings, stores, rules, Wire.digest l.wire) []))
