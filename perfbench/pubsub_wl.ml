(* The [pubsub] workload: one producer running the standard
   publish/subscribe rule set with an attached subscription registry,
   plus subscriber hosts that react to every notification.

   Topics have Zipf popularity, both for which topics hosts subscribe to
   and for which topics are published.  Most stimuli are publishes; the
   rest are subscribe/unsubscribe churn naming a subscriber host, so the
   register that publishes read is written throughout the run.  Every
   stimulus enters through the same external sender, so stimuli injected
   at one instant are processed in injection order — the order the
   model replays.  The
   generator replays its own copy of the register, so it knows every
   host's notification count. *)

open Xchange
open Common

type size = { hosts : int; topics : int; subscriptions : int; stimuli_per_tick : int }

(* One stimulus per tick, so a tick's wall time is one publish's (or
   one churn request's) event-to-reaction latency; tiny instances inject
   several at one instant, so the tests also cover the injection order
   the model replays. *)
let full = { hosts = 64; topics = 1_000; subscriptions = 6_400; stimuli_per_tick = 1 }
let tiny = { hosts = 6; topics = 10; subscriptions = 24; stimuli_per_tick = 5 }

let producer = "pub.example"
let subscriber i = Printf.sprintf "s%d.example" i
let topic t = Printf.sprintf "t%d" t
let tick_ms = Clock.seconds 1
let churn_share = 0.1

let subscriber_program =
  {|
ruleset subscriber {
  rule notified:
    on notify{{topic[var T]}}
    do nop
}
|}

(* The initial register: distinct (topic, host) pairs, topic by Zipf
   popularity, host uniform. *)
let initial ~seed size =
  let st = rng ~seed ~salt:37 1 in
  let z = zipf ~s:1.0 size.topics in
  let seen = Hashtbl.create size.subscriptions in
  let pairs = ref [] in
  while Hashtbl.length seen < size.subscriptions do
    let pair = (draw z st, Random.State.int st size.hosts) in
    if not (Hashtbl.mem seen pair) then begin
      Hashtbl.replace seen pair ();
      pairs := pair :: !pairs
    end
  done;
  List.rev !pairs

let register pairs =
  Term.elem ~ord:Term.Unordered "subscribers"
    (List.map
       (fun (t, h) ->
         Term.elem "sub" [ Term.elem "topic" [ Term.text (topic t) ]; Term.elem "host" [ Term.text (subscriber h) ] ])
       pairs)

let hosts ~seed size =
  { host = producer; ruleset = (fun () -> Pubsub.publisher_ruleset ()); docs = [ (Pubsub.subscribers_doc, register (initial ~seed size)) ]; registry = true }
  :: List.init size.hosts (fun i ->
         { host = subscriber i; ruleset = (fun () -> parse subscriber_program); docs = []; registry = false })

(* The register model: subscribers per topic (as a set of hosts) and a
   dense array of live pairs for uniform unsubscribe picks. *)
type model = {
  by_topic : (int, (int, unit) Hashtbl.t) Hashtbl.t;
  mutable live : (int * int) array;
  mutable n_live : int;
  index : (int * int, int) Hashtbl.t;  (** pair -> slot in [live] *)
}

let model_of pairs =
  let m =
    { by_topic = Hashtbl.create 1024; live = Array.make (2 * List.length pairs + 16) (0, 0); n_live = 0; index = Hashtbl.create 1024 }
  in
  let add (t, h) =
    if not (Hashtbl.mem m.index (t, h)) then begin
      let hs =
        match Hashtbl.find_opt m.by_topic t with
        | Some hs -> hs
        | None ->
            let hs = Hashtbl.create 8 in
            Hashtbl.replace m.by_topic t hs;
            hs
      in
      Hashtbl.replace hs h ();
      if m.n_live = Array.length m.live then
        m.live <- Array.append m.live (Array.make (Array.length m.live) (0, 0));
      m.live.(m.n_live) <- (t, h);
      Hashtbl.replace m.index (t, h) m.n_live;
      m.n_live <- m.n_live + 1
    end
  in
  let remove (t, h) =
    match Hashtbl.find_opt m.index (t, h) with
    | None -> ()
    | Some slot ->
        Hashtbl.remove (Hashtbl.find m.by_topic t) h;
        let last = m.live.(m.n_live - 1) in
        m.live.(slot) <- last;
        Hashtbl.replace m.index last slot;
        Hashtbl.remove m.index (t, h);
        m.n_live <- m.n_live - 1
  in
  List.iter add pairs;
  (m, add, remove)

let gen ~seed size episode =
  let m, add, remove = model_of (initial ~seed size) in
  let z = zipf ~s:1.0 size.topics in
  let tick = ref 0 and seq = ref 0 in
  let notifies = Array.make size.hosts 0 in
  let publishes = ref 0 and churn = ref 0 and subs = ref 0 and unsubs = ref 0 in
  let fanouts = ref [] in
  let next_tick ~drain =
    let k = !tick in
    incr tick;
    if drain then []
    else begin
      let st = tick_rng ~seed ~salt:37 ~episode k in
      List.init size.stimuli_per_tick (fun _ ->
          if Random.State.float st 1. >= churn_share then begin
            let t = draw z st in
            incr publishes;
            incr seq;
            let hs = Option.value ~default:(Hashtbl.create 1) (Hashtbl.find_opt m.by_topic t) in
            Hashtbl.iter (fun h () -> notifies.(h) <- notifies.(h) + 1) hs;
            fanouts := Hashtbl.length hs :: !fanouts;
            {
              to_ = producer;
              label = "publish";
              sender = "external";
              payload = Pubsub.publish ~topic:(topic t) (Term.elem "n" [ Term.int !seq ]);
            }
          end
          else begin
            incr churn;
            (* keep the register near its initial size: unsubscribe a live
               pair or subscribe a fresh one, evenly *)
            if Random.State.bool st && m.n_live > 0 then begin
              let t, h = m.live.(Random.State.int st m.n_live) in
              remove (t, h);
              incr unsubs;
              { to_ = producer; label = "unsubscribe"; sender = "external"; payload = Pubsub.unsubscribe ~topic:(topic t) ~host:(subscriber h) }
            end
            else begin
              let t = draw z st and h = Random.State.int st size.hosts in
              add (t, h);
              incr subs;
              { to_ = producer; label = "subscribe"; sender = "external"; payload = Pubsub.subscribe ~topic:(topic t) ~host:(subscriber h) }
            end
          end)
    end
  in
  let expected () =
    (("publishes", !publishes) :: ("subscribes", !subs) :: ("unsubscribes", !unsubs)
    :: ("notifies", Array.fold_left ( + ) 0 notifies)
    :: List.init size.hosts (fun h -> ("notifies@" ^ subscriber h, notifies.(h))))
  in
  let characterise () =
    let f = List.map float_of_int !fanouts in
    let stimuli = !publishes + !churn in
    [
      ("stimuli", float_of_int stimuli);
      ("publishes", float_of_int !publishes);
      ("mean_notify_fanout_per_publish", ratio (List.fold_left ( +. ) 0. f) (float_of_int (List.length f)));
      ("p99_notify_fanout_per_publish", if f = [] then 0. else quantile 0.99 f);
      ("churn_share_of_stimuli", iratio !churn stimuli);
      ("live_subscriptions", float_of_int m.n_live);
    ]
  in
  { next_tick; expected; characterise }

let observe net ~sent:_ =
  let nodes = nodes_of net in
  let firings = rule_stat (fun s -> s.Eca.firings) nodes in
  let subscribers =
    List.filter (fun h -> not (String.equal h producer)) (Network.hosts net)
    |> List.map (fun h -> ("notifies@" ^ h, Node.firings (Network.node_exn net h)))
  in
  ("publishes", rule_stat (fun s -> s.Eca.detections) nodes "fan-out")
  :: ("subscribes", firings "subscribe")
  :: ("unsubscribes", firings "unsubscribe")
  :: ("notifies", firings "fan-out")
  :: subscribers

let make ~seed size =
  {
    domains = 1;
    capture_domains = 1;
    tick_ms;
    warmup_ticks = 20;
    drain_ticks = 1;
    (* about 3 s of stimuli per network; set-up is ~0.05 s *)
    episode_ticks = 300;
    hosts = hosts ~seed size;
    gen = gen ~seed size;
    observe;
  }
