(* The traced run: the layer ladder.

   1. Repeat one episode of the timed run, timing every tick, and read
      the layer counters the network exposes.
   2. Run the same ticks again with snapshots off, so every host's log
      keeps all of its accepted inputs ([Event], [Remote_update],
      [Advance]) and audit records — partitioned on [capture_domains],
      which must reproduce the network run's outputs bit for bit.
   3. Node rung: replay each host's inputs into a freshly provisioned
      node through [Node.receive_event] / [receive_update] / [advance];
      the context's [env] times every query and its [send] only counts.
   4. Engine rung: replay them into a fresh [Engine] whose [env] is
      timed and whose [ops.update] is a timed [Store.apply]; update
      notifications are fed back as local events, as [Node] does.
   5. WAL rung: re-append every record into a fresh [Wal.t], timed.
   6. Registry rung: time [Registry.match_publish] on the publishes (and
      the register churn between them) against a standalone registry.

   Self times follow by subtraction — substrate = e2e − node rung,
   node = node rung − engine rung, engine = engine rung − query − store
   — and the fidelity checks demand that the three rungs fire exactly
   the same rules and that the WAL rung appends every record. *)

open Xchange
open Common

(* ------------------------------------------------------------------ *)
(* Spans, kept in memory and written when the run ends *)

type span = { id : int; name : string; parent : int; start_ns : int64; stop_ns : int64 }

let spans : span list ref = ref []
let next_id = ref 0

let span ?(parent = 0) name f =
  incr next_id;
  let id = !next_id in
  let start_ns = now_ns () in
  let r = f id in
  let stop_ns = now_ns () in
  spans := { id; name; parent; start_ns; stop_ns } :: !spans;
  (r, ms_between start_ns stop_ns)

let write_spans path =
  let oc = open_out path in
  output_string oc "[\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc "%s{\"id\": %d, \"parent\": %d, \"name\": %S, \"start_ns\": %Ld, \"end_ns\": %Ld}\n"
        (if i = 0 then "" else ",")
        s.id s.parent s.name s.start_ns s.stop_ns)
    (List.rev !spans);
  output_string oc "]\n";
  close_out oc

(* Accumulated time and calls of one kind of layer call. *)
type acc = { mutable ns : int64; mutable calls : int }

let acc () = { ns = 0L; calls = 0 }
let acc_ms a = Int64.to_float a.ns /. 1e6

let timed a f =
  let t0 = now_ns () in
  let r = f () in
  a.ns <- Int64.add a.ns (Int64.sub (now_ns ()) t0);
  a.calls <- a.calls + 1;
  r

let timed_env a (e : Condition.env) =
  {
    Condition.fetch = (fun r -> timed a (fun () -> e.Condition.fetch r));
    fetch_rdf = (fun r -> timed a (fun () -> e.Condition.fetch_rdf r));
    cached_match = (fun r ~seed q -> timed a (fun () -> e.Condition.cached_match r ~seed q));
  }

(* Cost of one timed call with nothing inside: the instrument's own
   overhead, charged per call in [trace.overhead_share]. *)
let timer_cost_ns () =
  let a = acc () in
  let n = 200_000 in
  let t0 = now_ns () in
  for _ = 1 to n do
    timed a ignore
  done;
  Int64.to_float (Int64.sub (now_ns ()) t0) /. float_of_int n

(* ------------------------------------------------------------------ *)
(* Rungs *)

let inputs records =
  List.filter (function Wal.Event _ | Wal.Remote_update _ | Wal.Advance _ -> true | _ -> false) records

type rung = { firings : int; ms : float }

let node_rung ~parent (h : host_spec) records ~query =
  let n, _ = provision h in
  let now = ref Clock.origin in
  let ctx =
    { Node.env = timed_env query (Store.env (Node.store n)); send = (fun _ -> ()); now = (fun () -> !now) }
  in
  let (), ms =
    span ~parent ("node:" ^ h.host) (fun _ ->
        List.iter
          (function
            | Wal.Event e ->
                now := Event.time e;
                ignore (Node.receive_event n ctx e)
            | Wal.Remote_update { from; msg_id; at; update } ->
                now := at;
                ignore (Node.receive_update n ctx ~from ~msg_id update)
            | Wal.Advance tm ->
                now := tm;
                ignore (Node.advance n ctx tm)
            | _ -> ())
          records)
  in
  (n, !now, { firings = Node.firings n; ms })

let engine_rung ~parent (h : host_spec) records ~query ~store_acc =
  let store = Store.create () in
  List.iter (fun (path, doc) -> Store.add_doc store path doc) h.docs;
  if h.registry then ignore (Pubsub.Registry.attach store);
  let lane = Event.fresh_origin () in
  let counter = ref 0 in
  let fresh_event_id () =
    incr counter;
    Event.scoped_id ~origin:lane ~n:!counter
  in
  let engine = Engine.create_exn ~fresh_event_id (h.ruleset ()) in
  let env = timed_env query (Store.env store) in
  let now = ref Clock.origin in
  let pending = Queue.create () in
  let notify ~sender notifications =
    List.iter
      (fun { Store.summary; _ } ->
        Queue.push
          (Event.make ~id:(fresh_event_id ()) ~sender ~recipient:h.host ~occurred_at:!now ~label:"update" summary)
          pending)
      notifications
  in
  let apply ~sender u =
    match timed store_acc (fun () -> Store.apply store u) with
    | Error e -> Error e
    | Ok (k, notifications) ->
        notify ~sender notifications;
        Ok k
  in
  let remote u =
    let target = Uri.host (Action.update_doc u) in
    target <> "" && not (String.equal target h.host)
  in
  let ops =
    {
      Action.update = (fun u -> if remote u then Ok 1 else apply ~sender:h.host u);
      txn_update = (fun u -> if remote u then Error "remote update inside a transaction" else apply ~sender:h.host u);
      send = (fun ~recipient:_ ~label:_ ~ttl:_ ~delay:_ _ -> ());
      log = ignore;
      now = (fun () -> !now);
      checkpoint = (fun () () -> ());
    }
  in
  let firings = ref 0 in
  let count (o : Engine.outcome) = firings := !firings + List.length o.Engine.firings in
  (* the cascade of local update events, bounded as in [Node] *)
  let cascade () =
    let depth = ref 0 in
    while not (Queue.is_empty pending) do
      let e = Queue.pop pending in
      if !depth <= Node.max_cascade_depth then count (Engine.handle_event engine ~env ~ops e);
      incr depth
    done
  in
  let (), ms =
    span ~parent ("engine:" ^ h.host) (fun _ ->
        List.iter
          (function
            | Wal.Event e ->
                now := Event.time e;
                Queue.push e pending;
                cascade ()
            | Wal.Remote_update { from; at; update; _ } ->
                now := at;
                ignore (apply ~sender:from update);
                cascade ()
            | Wal.Advance tm ->
                now := tm;
                count (Engine.advance engine ~env ~ops tm);
                cascade ()
            | _ -> ())
          records)
  in
  { firings = !firings; ms }

let wal_rung ~parent host records ~wal_acc =
  let w = Wal.create () in
  ignore (span ~parent ("wal:" ^ host) (fun _ -> List.iter (fun r -> timed wal_acc (fun () -> Wal.append w r)) records));
  Wal.appended w

(* Standalone registry: the initial register, then the producer's
   inputs in order — churn maintains it, publishes are matched. *)
let registry_rung ~parent (h : host_spec) records ~match_acc ~update_acc =
  let r = Pubsub.Registry.create () in
  let field name t =
    List.find_map
      (fun c -> if Term.label c = Some name then Option.bind (List.nth_opt (Term.children c) 0) Term.as_text else None)
      (Term.children t)
  in
  let pair t = match (field "topic" t, field "host" t) with Some a, Some b -> Some (a, b) | _ -> None in
  (match List.assoc_opt Pubsub.subscribers_doc h.docs with
  | Some reg ->
      List.iter
        (fun e -> Option.iter (fun (topic, host) -> Pubsub.Registry.subscribe r ~topic ~host) (pair e))
        (Term.children reg)
  | None -> ());
  let matched = ref 0 in
  let (), _ =
    span ~parent "registry" (fun _ ->
        List.iter
          (function
            | Wal.Event e -> (
                let p = e.Event.payload in
                match (e.Event.label, pair p) with
                | "publish", _ -> matched := !matched + List.length (timed match_acc (fun () -> Pubsub.Registry.match_publish r p))
                | "subscribe", Some (topic, host) -> timed update_acc (fun () -> Pubsub.Registry.subscribe r ~topic ~host)
                | "unsubscribe", Some (topic, host) ->
                    ignore (timed update_acc (fun () -> Pubsub.Registry.unsubscribe r ~topic ~host))
                | _ -> ())
            | _ -> ())
          records)
  in
  !matched

(* ------------------------------------------------------------------ *)
(* The traced run *)

(* What the rungs made of one host's log. *)
type host_result = {
  host : string;
  stop : Wal.stop;  (** how decoding the captured log ended *)
  capture_firings : int;
  node : rung;
  engine : rung;
  records : int;
  appended : int;  (** by the WAL rung *)
  snapshot_ms : float list;
  matched : int;  (** registry rung: hosts matched over all publishes *)
}

type result = {
  metrics : (string * float * string) list;  (** name, value, unit *)
  attempted : int;
  failed : int;
  notes : string list;
}

let sum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs
let plan_cells () = Obs.Metrics.snapshot Simulate.metrics

let run ~ticks ?spans_path (w : Common.t) =
  if Escape.no_wal then failwith "Ladder.run: the ladder replays write-ahead logs, and XCHANGE_NO_WAL turns them off";
  spans := [];
  next_id := 0;
  let root = 0 in
  (* 1. the network run, set up as the timed run is: a process's first
     network can run markedly faster than later ones (pubsub: ~1.5x), and
     every later phase of this run builds networks of its own *)
  let l, _ = Timed.setup_repeated ~digest:true w in
  let gc0 = Gc.quick_stat () and plan0 = plan_cells () in
  let walls = ref [] in
  let (), _ =
    span ~parent:root "network" (fun parent ->
        let t = ref 0 in
        let go ~drain =
          incr t;
          let (_, ms), _ = span ~parent (Printf.sprintf "tick:%d" !t) (fun _ -> Driver.tick ~drain l) in
          walls := ms :: !walls
        in
        for _ = 1 to w.warmup_ticks do
          go ~drain:false
        done;
        for _ = 1 to ticks do
          go ~drain:false
        done;
        for _ = 1 to w.drain_ticks do
          go ~drain:true
        done)
  in
  let gc1 = Gc.quick_stat () and plan1 = plan_cells () in
  let ticks = List.length !walls in
  let stimuli = l.Driver.stimuli in
  let v = Driver.verify l in
  let cells = Network.metrics_snapshot l.Driver.net in
  let total name = Obs.Metrics.total cells name in
  let ts = Network.transport_stats l.Driver.net and ss = Network.sched_stats l.Driver.net in
  let engines = List.map Node.engine l.Driver.nodes in
  let net_firings = List.map (fun n -> (Node.host n, Node.firings n)) l.Driver.nodes in
  let opt_sum f g = sum (fun e -> match f e with Some s -> g s | None -> 0) engines in
  let sub_cand = opt_sum Engine.subindex_stats (fun s -> s.Sub_index.candidates) in
  let sub_ref = opt_sum Engine.subindex_stats (fun s -> s.Sub_index.refuted) in
  let a_evals = opt_sum Engine.alpha_stats (fun s -> s.Alpha.evaluations) in
  let a_hits = opt_sum Engine.alpha_stats (fun s -> s.Alpha.hits) in
  let a_regs = opt_sum Engine.alpha_stats (fun s -> s.Alpha.registrations) in
  let a_nodes = opt_sum Engine.alpha_stats (fun s -> s.Alpha.distinct_nodes) in
  let b_steps = opt_sum Engine.beta_stats (fun s -> s.Beta.steps) in
  let b_hits = opt_sum Engine.beta_stats (fun s -> s.Beta.hits) in
  let probed = sum (fun e -> (Engine.join_stats e).Incremental.pairs_probed) engines in
  let skipped = sum (fun e -> (Engine.join_stats e).Incremental.pairs_skipped) engines in
  let live = sum Engine.live_instances engines in
  let reg_candidates = sum (fun r -> (Pubsub.Registry.stats r).Sub_index.candidates) l.Driver.registries in
  let publishes = ref 0 and churn = ref 0 in
  let wall_net = List.fold_left ( +. ) 0. !walls in
  (* 2. capture: the same ticks with snapshots off, so the logs keep
     every input, on the workload's capture domains (the Partition
     counters come from here).  Logs are kept as bytes and decoded one
     host at a time, so the rungs run on a heap no larger than the live
     run's. *)
  let net_digest = Driver.digest l in
  let captured, capture_digest, rounds, crossings =
    let c = Driver.setup ~snapshot_every:max_int ~domains:w.capture_domains ~digest:true w in
    for _ = 1 to ticks - w.drain_ticks do
      ignore (Driver.tick c)
    done;
    Driver.drain c;
    ( List.map2
        (fun (h : host_spec) n -> (h, Wal.contents (Option.get (Node.wal n)), Node.firings n))
        w.hosts c.Driver.nodes,
      Driver.digest c,
      Network.window_rounds c.Driver.net,
      Network.window_crossings c.Driver.net )
  in
  (* 3-6. the rungs *)
  let q_node = acc () and q_engine = acc () and store_acc = acc () and wal_acc = acc () in
  let match_acc = acc () and update_acc = acc () in
  let results =
    List.map
      (fun (h, log, capture_firings) ->
        Gc.full_major ();
        let records, stop = Wal.records (Wal.of_string log) in
        let ins = inputs records in
        List.iter
          (function
            | Wal.Event e when String.equal e.Event.label "publish" -> incr publishes
            | Wal.Event e when List.mem e.Event.label [ "subscribe"; "unsubscribe" ] -> incr churn
            | _ -> ())
          (if h.registry then ins else []);
        let (node, last, nr), _ = span ~parent:root "node_rung" (fun parent -> node_rung ~parent h ins ~query:q_node) in
        let snapshot_ms =
          List.init 3 (fun _ -> snd (span ~parent:root ("checkpoint:" ^ h.host) (fun _ -> Node.checkpoint node ~at:last)))
        in
        let er, _ = span ~parent:root "engine_rung" (fun parent -> engine_rung ~parent h ins ~query:q_engine ~store_acc) in
        let appended, _ = span ~parent:root "wal_rung" (fun parent -> wal_rung ~parent h.host records ~wal_acc) in
        let matched =
          if h.registry then fst (span ~parent:root "registry_rung" (fun parent -> registry_rung ~parent h ins ~match_acc ~update_acc))
          else 0
        in
        { host = h.host; stop; capture_firings; node = nr; engine = er; records = List.length records; appended; snapshot_ms; matched })
      captured
  in
  (* fidelity *)
  let fidelity =
    List.concat_map
      (fun r ->
        let net_f = List.assoc r.host net_firings in
        let ok_f = net_f = r.capture_firings && net_f = r.node.firings && net_f = r.engine.firings in
        let ok_w = r.records = r.appended && r.stop = Wal.Clean in
        (if ok_f then []
         else
           [
             Printf.sprintf "FIDELITY %s firings: network %d, capture %d, node rung %d, engine rung %d" r.host net_f
               r.capture_firings r.node.firings r.engine.firings;
           ])
        @ if ok_w then [] else [ Printf.sprintf "FIDELITY %s wal: %d records, %d re-appended" r.host r.records r.appended ])
      results
  in
  let expected_notifies =
    List.fold_left (fun acc (name, e, _) -> if String.equal name "notifies" then e else acc) 0 v.Driver.checks
  in
  let matched = List.fold_left (fun acc r -> acc + r.matched) 0 results in
  let fidelity =
    if List.exists (fun h -> h.registry) w.hosts && matched <> expected_notifies then
      fidelity @ [ Printf.sprintf "FIDELITY registry matches %d, expected notifications %d" matched expected_notifies ]
    else fidelity
  in
  let fidelity =
    if String.equal net_digest capture_digest then fidelity
    else fidelity @ [ Printf.sprintf "FIDELITY capture replay on %d domain(s) changed the outputs" w.capture_domains ]
  in
  let failed = v.Driver.failed + List.length fidelity in
  (* self times *)
  let node_ms = List.fold_left (fun acc r -> acc +. r.node.ms) 0. results in
  let engine_ms = List.fold_left (fun acc r -> acc +. r.engine.ms) 0. results in
  let q_ms = acc_ms q_engine and s_ms = acc_ms store_acc in
  let net_self = Float.max 0. (wall_net -. node_ms) in
  let node_self = Float.max 0. (node_ms -. engine_ms) in
  let engine_self = Float.max 0. (engine_ms -. q_ms -. s_ms) in
  (* The unclamped self times telescope to the e2e wall, so coverage is
     at least 1 by construction: it cannot show work a rung skipped (the
     firing checks guard that), only rungs that do not nest — a rung
     slower than the run that contains it pushes it above 1. *)
  let coverage = ratio (net_self +. node_self +. engine_self +. q_ms +. s_ms) wall_net in
  let timer_calls = q_node.calls + q_engine.calls + store_acc.calls + wal_acc.calls + match_acc.calls + update_acc.calls in
  let overhead = ratio (float_of_int timer_calls *. timer_cost_ns () /. 1e6) wall_net in
  let snapshot_ms = median (List.concat_map (fun r -> r.snapshot_ms) results) in
  let fst_ = float_of_int stimuli in
  let kev = fst_ /. 1000. in
  let per_event x = ratio x fst_ and per_kev x = ratio x kev in
  let share a b = ratio a (a +. b) in
  let cell name = total name in
  let plan name l = Obs.Metrics.total l name in
  let plan_hits = plan "query.plan_cache_hits" plan1 -. plan "query.plan_cache_hits" plan0 in
  let plan_misses = plan "query.plan_cache_misses" plan1 -. plan "query.plan_cache_misses" plan0 in
  let f = float_of_int in
  let metrics =
    [
      ("net.self_ms_per_kevent", per_kev net_self, "ms");
      ("transport.messages_per_event", per_event (f ts.Transport.messages), "count");
      ("transport.bytes_per_event", per_event (f ts.Transport.bytes), "bytes");
      ("sched.executed_per_event", per_event (f ss.Sched.executed), "count");
      ("sched.max_queue", f ss.Sched.max_queue, "count");
      ("partition.window_rounds_per_tick", ratio (f rounds) (f ticks), "count");
      ("partition.crossings_per_event", per_event (f crossings), "count");
      ("node.self_ms_per_kevent", per_kev node_self, "ms");
      ("node.cascade_events_per_event", per_event (cell "engine.events_seen"), "count");
      ("engine.self_ms_per_kevent", per_kev engine_self, "ms");
      ("engine.rules_fed_per_event", per_event (cell "engine.rules_fed"), "count");
      ("engine.rules_skipped_per_event", per_event (cell "engine.rules_skipped"), "count");
      ("subindex.candidates_per_event", per_event (f sub_cand), "count");
      ("subindex.refuted_share", share (f sub_ref) (f sub_cand), "share");
      ("engine.firings_per_event", per_event (f (sum snd net_firings)), "count");
      ("alpha.evaluations_per_event", per_event (f a_evals), "count");
      ("alpha.hit_rate", share (f a_hits) (f a_evals), "share");
      ("alpha.sharing_factor", ratio (f a_regs) (f a_nodes), "count");
      ("beta.steps_per_event", per_event (f b_steps), "count");
      ("beta.hit_rate", share (f b_hits) (f b_steps), "share");
      ("join.pairs_probed_per_event", per_event (f probed), "count");
      ("join.pairs_skipped_share", share (f skipped) (f probed), "share");
      ("engine.live_instances", f live, "count");
      ("query.ms_per_kevent", per_kev q_ms, "ms");
      ("query.calls_per_event", per_event (f q_engine.calls), "count");
      ("store.query_cache_hit_rate", share (cell "store.query_cache_hits") (cell "store.query_cache_misses"), "share");
      ("plan.cache_hit_rate", share plan_hits plan_misses, "share");
      ("store.indexed_selects_per_event", per_event (cell "store.indexed_selects"), "count");
      ("store.apply_ms_per_kevent", per_kev s_ms, "ms");
      ("store.updates_per_event", per_event (f store_acc.calls), "count");
      ("store.index_invalidations_per_event", per_event (cell "store.index_invalidations"), "count");
      ("wal.append_ms_per_kevent", per_kev (acc_ms wal_acc), "ms");
      ("wal.appends_per_event", per_event (cell "wal.appends"), "count");
      ("wal.bytes_per_event", per_event (cell "wal.bytes"), "bytes");
      ("wal.snapshots_per_kevent", per_kev (cell "wal.snapshots"), "count");
      ("wal.snapshot_ms", snapshot_ms, "ms");
      ("registry.match_ms_per_kevent", per_kev (acc_ms match_acc), "ms");
      ("registry.update_ms_per_kchange", ratio (acc_ms update_acc) (f !churn /. 1000.), "ms");
      ("subindex.candidates_per_publish", ratio (f reg_candidates) (f !publishes), "count");
      ("gc.minor_collections_per_kevent", per_kev (f (gc1.Gc.minor_collections - gc0.Gc.minor_collections)), "count");
      ("gc.promoted_words_per_event", per_event (gc1.Gc.promoted_words -. gc0.Gc.promoted_words), "words");
      ("gc.alloc_words_per_event", per_event (gc1.Gc.minor_words -. gc0.Gc.minor_words), "words");
      ("trace.coverage", coverage, "share");
      ("trace.overhead_share", overhead, "share");
    ]
  in
  Option.iter (fun path -> try write_spans path with Sys_error _ -> ()) spans_path;
  let notes =
    Timed.verdict_notes v @ fidelity
    @ [
        Printf.sprintf "traced run: %d ticks, %d stimuli; e2e %.1f ms, node rung %.1f ms, engine rung %.1f ms (query %.1f, store %.1f), wal rung %.1f ms"
          ticks stimuli wall_net node_ms engine_ms q_ms s_ms (acc_ms wal_acc);
        Printf.sprintf "self ms: substrate %.1f, node %.1f, engine %.1f, query %.1f, store %.1f" net_self node_self
          engine_self q_ms s_ms;
        Printf.sprintf "trace.coverage %.3f%s" coverage
          (if coverage > 1.1 then "  ABOVE 1.1: the rungs do not nest" else " (at most 1.1; at least 1 by construction)");
        Printf.sprintf "ladder fidelity: %s"
          (if fidelity = [] then
             Printf.sprintf
               "firings agree on every rung, WAL re-append complete, capture replay on %d domain(s) bit-identical"
               w.capture_domains
           else "FAILED");
      ]
    @ Option.to_list (Option.map (Printf.sprintf "spans written to %s") spans_path)
  in
  { metrics; attempted = stimuli; failed; notes }
