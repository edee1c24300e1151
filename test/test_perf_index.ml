(* The hot-path indexing layer (term index, dispatch table, query cache)
   must be a pure acceleration: every property here pits an indexed or
   memoized evaluation against the naive reference and demands identical
   answers.  See HACKING.md "Performance architecture". *)

open Xchange

let subst_sets_equal a b = List.equal Subst.equal a b

let pp_set = Fmt.str "%a" Subst.pp_set

(* ---- matches_anywhere: with / without a term index ---- *)

let seed_x = Option.get (Subst.of_list [ ("X", Term.text "x") ])

let match_prop ~seed (q, t) =
  let naive = Simulate.matches_anywhere ~seed q t in
  let indexed = Simulate.matches_anywhere ~index:(Term_index.build t) ~seed q t in
  if subst_sets_equal naive indexed then true
  else
    QCheck.Test.fail_reportf "query %a@.doc %s@.naive: %s@.indexed: %s" Qterm.pp q
      (Term.to_string t) (pp_set naive) (pp_set indexed)

let prop_match_indexed =
  QCheck.Test.make ~name:"matches_anywhere: indexed = naive" ~count:1000
    (QCheck.pair Gen.qterm_arb Gen.xml_term_arb)
    (match_prop ~seed:Subst.empty)

let prop_match_indexed_seeded =
  QCheck.Test.make ~name:"matches_anywhere: indexed = naive (seeded)" ~count:500
    (QCheck.pair Gen.qterm_arb Gen.xml_term_arb)
    (match_prop ~seed:seed_x)

(* ---- Path.select: with / without label-path pruning ---- *)

let selector_gen =
  QCheck.Gen.(
    list_size (int_bound 3)
      (pair
         (oneofl [ Path.Child; Path.Descendant ])
         (oneof [ return Path.Any; map (fun l -> Path.Tag l) Gen.small_label ])))

let selector_print sel =
  String.concat ""
    (List.map
       (fun (ax, st) ->
         (match ax with Path.Child -> "/" | Path.Descendant -> "//")
         ^ match st with Path.Any -> "*" | Path.Tag l -> l)
       sel)

let prop_select_pruned =
  QCheck.Test.make ~name:"Path.select: label_paths pruning = full traversal" ~count:1000
    (QCheck.pair Gen.xml_term_arb (QCheck.make ~print:selector_print selector_gen))
    (fun (t, sel) ->
      let idx = Term_index.build t in
      Path.select t sel = Path.select ~label_paths:(Term_index.paths_with_label idx) t sel)

(* ---- Subst.dedup: bucketed fast path = reference sort_uniq ---- *)

let subst_gen =
  QCheck.Gen.(
    map
      (fun l -> match Subst.of_list l with Some s -> s | None -> Subst.empty)
      (list_size (int_bound 3) (pair Gen.var_name Gen.term_gen)))

let prop_dedup =
  QCheck.Test.make ~name:"Subst.dedup = sort_uniq Subst.compare" ~count:1000
    (QCheck.make (QCheck.Gen.list_size (QCheck.Gen.int_bound 60) subst_gen))
    (fun l -> subst_sets_equal (Subst.dedup l) (List.sort_uniq Subst.compare l))

(* ---- Engine: label-dispatched handle_event = full scan ---- *)

let harness () =
  let store = Store.create () in
  Store.add_doc store "/orders" (Term.elem ~ord:Term.Unordered "orders" []);
  let ops =
    {
      Action.update = (fun u -> Result.map fst (Store.apply store u));
      txn_update = (fun u -> Result.map fst (Store.apply store u));
      send = (fun ~recipient:_ ~label:_ ~ttl:_ ~delay:_ _ -> ());
      log = (fun _ -> ());
      now = (fun () -> 0);
      checkpoint = (fun () -> fun () -> ());
    }
  in
  (store, ops)

let firing_equal (a : Eca.firing) (b : Eca.firing) =
  String.equal a.Eca.rule b.Eca.rule
  && a.Eca.branch = b.Eca.branch
  && Subst.equal a.Eca.bindings b.Eca.bindings
  && a.Eca.outcome = b.Eca.outcome

let outcome_equal (a : Engine.outcome) (b : Engine.outcome) =
  List.equal firing_equal a.Engine.firings b.Engine.firings
  && List.length a.Engine.derived_events = List.length b.Engine.derived_events
  && a.Engine.errors = b.Engine.errors

let final_time events = List.fold_left (fun acc e -> max acc (Event.time e)) 0 events + 10_000

let rules_of queries =
  List.mapi
    (fun i q ->
      let name = Printf.sprintf "r%d" i in
      let action = Action.insert ~doc:"/orders" (Construct.cel "row" [ Construct.ctext name ]) in
      if i mod 2 = 0 then Eca.make ~name ~on:q action
      else
        (* conditional rules exercise the store-memoized condition path *)
        Eca.make ~name ~on:q
          ~if_:(Condition.In (Condition.Local "/orders", Qterm.el "row" []))
          action)
    queries

let dispatch_prop (queries, events) =
  let valid = List.filter (fun q -> Result.is_ok (Event_query.validate q)) queries in
  if valid = [] then QCheck.assume_fail ()
  else
    let run index =
      let engine = Engine.create_exn ~index (Ruleset.make ~rules:(rules_of valid) "p") in
      let store, ops = harness () in
      let env = Store.env store in
      let outcomes = List.map (fun e -> Engine.handle_event engine ~env ~ops e) events in
      let closing = Engine.advance engine ~env ~ops (final_time events) in
      (outcomes @ [ closing ], Option.get (Store.doc store "/orders"))
    in
    let indexed, doc_i = run true in
    let naive, doc_n = run false in
    if List.length indexed = List.length naive
       && List.for_all2 outcome_equal indexed naive
       && Term.equal doc_i doc_n
    then true
    else QCheck.Test.fail_reportf "dispatch divergence on %d rules, %d events"
           (List.length valid) (List.length events)

let queries_arb =
  QCheck.make
    ~print:(fun qs -> Fmt.str "%a" Fmt.(list ~sep:cut Event_query.pp) qs)
    QCheck.Gen.(list_size (int_range 1 4) Gen.event_query_gen)

let stream_arb =
  QCheck.make
    ~print:(fun evs -> Fmt.str "%a" Fmt.(list ~sep:cut Event.pp) evs)
    (Gen.event_stream_gen ~labels:[ "a"; "b"; "c" ] ~max_len:20 ~max_gap:15)

let prop_dispatch =
  QCheck.Test.make ~name:"Engine: dispatch table = full rule scan" ~count:300
    (QCheck.pair queries_arb stream_arb)
    dispatch_prop

(* ---- Store.query: memoized answers stay coherent across updates ---- *)

(* Scripts interleave queries (drawn from a small pool so the cache gets
   hits) with document mutations; after every step the cached answer must
   equal a fresh uncached evaluation of the store's current document. *)
let cache_case_gen =
  QCheck.Gen.(
    pair Gen.xml_term_gen
      (pair
         (array_size (return 3) Gen.qterm_gen)
         (list_size (int_bound 25) (pair (int_bound 5) Gen.term_gen))))

let cache_prop (doc0, (pool, script)) =
  let store = Store.create ~cache_capacity:8 () in
  Store.add_doc store "/d" doc0;
  let check ~seed q =
    let got = Store.query store ~doc:"/d" ~seed q in
    let want = Simulate.matches_anywhere ~seed q (Option.get (Store.doc store "/d")) in
    if subst_sets_equal got want then true
    else
      QCheck.Test.fail_reportf "query %a@.cached: %s@.fresh: %s" Qterm.pp q (pp_set got)
        (pp_set want)
  in
  List.for_all
    (fun (tag, term) ->
      match tag with
      | 0 | 1 | 2 -> check ~seed:Subst.empty pool.(tag)
      | 3 -> check ~seed:seed_x pool.(0)
      | 4 ->
          ignore
            (Store.apply store
               (Action.U_insert { doc = "/d"; selector = []; at = None; content = term }));
          true
      | _ ->
          ignore
            (Store.apply store
               (Action.U_replace
                  { doc = "/d"; selector = [ (Path.Descendant, Path.Tag "item") ]; content = term }));
          true)
    script

let prop_cache_coherent =
  QCheck.Test.make ~name:"Store.query: cache = fresh evaluation across updates" ~count:400
    (QCheck.make cache_case_gen)
    cache_prop

(* ---- units: LRU mechanics and observability counters ---- *)

let test_lru () =
  let l = Lru.create ~cap:2 in
  Lru.add l "a" 1;
  Lru.add l "b" 2;
  Alcotest.(check (option int)) "a hit" (Some 1) (Lru.find l "a");
  Lru.add l "c" 3;
  (* "b" was least recently used *)
  Alcotest.(check (option int)) "b evicted" None (Lru.find l "b");
  Alcotest.(check (option int)) "a kept" (Some 1) (Lru.find l "a");
  Alcotest.(check (option int)) "c kept" (Some 3) (Lru.find l "c");
  Alcotest.(check int) "bounded" 2 (Lru.length l);
  Alcotest.(check int) "capacity" 2 (Lru.capacity l);
  Alcotest.(check int) "evictions" 1 (Lru.evictions l);
  Alcotest.(check int) "hits" 3 (Lru.hits l);
  Alcotest.(check int) "misses" 1 (Lru.misses l);
  Lru.clear l;
  Alcotest.(check int) "cleared" 0 (Lru.length l)

let test_store_counters () =
  let s = Store.create () in
  Store.add_doc s "/d" (Term.elem "d" [ Term.elem "item" [ Term.text "x" ] ]);
  let q = Qterm.el "item" [ Qterm.pos (Qterm.var "X") ] in
  let r1 = Store.query s ~doc:"/d" q in
  let r2 = Store.query s ~doc:"/d" q in
  Alcotest.(check bool) "hit = miss answers" true (subst_sets_equal r1 r2);
  Alcotest.(check int) "one answer" 1 (List.length r1);
  let st = Store.stats s in
  Alcotest.(check int) "one miss" 1 st.Store.query_cache_misses;
  Alcotest.(check int) "one hit" 1 st.Store.query_cache_hits;
  Alcotest.(check int) "one index built" 1 st.Store.index_builds;
  Alcotest.(check int) "one live index" 1 st.Store.live_indexes;
  (* a mutation invalidates the index and changes the digest key *)
  ignore
    (Store.apply s
       (Action.U_insert
          { doc = "/d"; selector = []; at = None; content = Term.elem "item" [ Term.text "y" ] }));
  let st = Store.stats s in
  Alcotest.(check bool) "invalidated" true (st.Store.index_invalidations >= 1);
  Alcotest.(check int) "no live index" 0 st.Store.live_indexes;
  let r3 = Store.query s ~doc:"/d" q in
  Alcotest.(check int) "new version answers" 2 (List.length r3);
  let st = Store.stats s in
  Alcotest.(check int) "second miss" 2 st.Store.query_cache_misses;
  Alcotest.(check int) "index rebuilt" 2 st.Store.index_builds

let test_engine_counters () =
  let rule l =
    Eca.make ~name:("r-" ^ l) ~on:(Event_query.on ~label:l (Qterm.var "P")) Action.Nop
  in
  let engine =
    Engine.create_exn (Ruleset.make ~rules:[ rule "a"; rule "b"; rule "c" ] "s")
  in
  let store, ops = harness () in
  let env = Store.env store in
  let outcome =
    Engine.handle_event engine ~env ~ops (Event.make ~occurred_at:1 ~label:"a" (Term.text "x"))
  in
  Alcotest.(check int) "only r-a fires" 1 (List.length outcome.Engine.firings);
  let snap = Obs.Metrics.snapshot (Engine.metrics engine) in
  let cell name =
    match Obs.Metrics.find snap name with
    | Some (Obs.Metrics.Int n) -> n
    | _ -> Alcotest.failf "no counter %s" name
  in
  Alcotest.(check int) "one lookup" 1 (cell "engine.dispatch_lookups");
  Alcotest.(check int) "one rule fed" 1 (cell "engine.rules_fed");
  Alcotest.(check int) "two rules skipped" 2 (cell "engine.rules_skipped")

let suite =
  ( "perf-index",
    [
      QCheck_alcotest.to_alcotest ~long:true prop_match_indexed;
      QCheck_alcotest.to_alcotest prop_match_indexed_seeded;
      QCheck_alcotest.to_alcotest prop_select_pruned;
      QCheck_alcotest.to_alcotest prop_dedup;
      QCheck_alcotest.to_alcotest ~long:true prop_dispatch;
      QCheck_alcotest.to_alcotest prop_cache_coherent;
      Alcotest.test_case "LRU bounds and counters" `Quick test_lru;
      Alcotest.test_case "store index/cache counters" `Quick test_store_counters;
      Alcotest.test_case "engine dispatch counters" `Quick test_engine_counters;
    ] )
