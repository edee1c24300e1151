(** The local reactive rule engine (Thesis 2).

    One engine per Web site: "each Web site manages its own rule base
    and determines locally which of the rules fire."  The engine owns
    the compiled event-query state of every ECA rule and the node's
    event derivation network; it acts on the world only through the
    capability records it is handed ([env] for reading, [ops] for
    writing), so global behaviour arises exclusively from event-based
    communication and Web data access.

    Expired events (Thesis 4) are dropped on arrival, before any rule
    sees them. *)

open Xchange_query
open Xchange_event
open Xchange_obs

type t

val create :
  ?horizon:Clock.span ->
  ?index:bool ->
  ?share:bool ->
  ?fresh_event_id:(unit -> int) ->
  Ruleset.t ->
  (t, string) result
(** Validates the rule set (duplicate names, unresolved procedure
    calls), every rule's event query, and the (non-recursive) event
    derivation program, then compiles one incremental engine per rule.

    Events are dispatched through one {!Sub_index} over every rule
    atom: an event reaches only rules with an atom whose label {e and}
    payload fingerprint it can satisfy, so rules refuted by the
    event's shape are never visited.  A rule that is not fed the event
    still has its absence timers advanced, preserving semantics.

    [index:false] (default [true]) is the reference path the
    differential suites compare against: every rule sees every event
    (no sub-index) and composite-event joins run as nested loops
    instead of hash-partitioned.  Outcomes are identical on both paths
    (property-tested); use it only for that comparison.

    [share] (default: on unless [XCHANGE_NO_SHARE=1]) deduplicates
    rule evaluation across the whole rule base through two shared
    networks.  The {!Alpha} network dedupes atomic event matchers:
    structurally-identical atoms — in ECA rules and event-derivation
    rules alike — evaluate a given occurrence once and fan the
    substitutions out to every subscribing rule, so large rule sets
    with overlapping patterns pay per {e distinct} pattern, not per
    rule.  The {!Beta} network dedupes composite join state: rules
    whose (alpha-renamed) And/Seq/Times subtrees coincide share one
    join pipeline and one instance store, each event joined once per
    distinct subtree — per-rule state shrinks to a thin projection
    (variable renaming, selection, consumption, firing).  Shared and
    unshared outcomes are identical (property-tested, [test_alpha] /
    [test_beta]). *)

(** [fresh_event_id] allocates ids for events derived by the engine's
    derivation network (typically the owning node's origin lane, see
    {!Event.scoped_id}); preserved across {!load_ruleset}.  Defaults to
    the global [Event] counter. *)

val create_exn :
  ?horizon:Clock.span ->
  ?index:bool ->
  ?share:bool ->
  ?fresh_event_id:(unit -> int) ->
  Ruleset.t ->
  t

type outcome = {
  firings : Eca.firing list;
  derived_events : Event.t list;
  errors : (string * string) list;  (** (qualified rule name, message) *)
}

val handle_event : t -> env:Condition.env -> ops:Action.ops -> Event.t -> outcome
(** Feeds the event (and the events it derives) to every rule. *)

val advance : t -> env:Condition.env -> ops:Action.ops -> Clock.time -> outcome
(** Moves the engine clock: absence deadlines can fire rules. *)

val load_ruleset : t -> Ruleset.t -> (t, string) result
(** Meta-programming support (Thesis 11): a new rule set received as a
    message is merged as a child of the engine's root rule set; the
    result is a fresh engine sharing no event state with [t].  Existing
    compiled state of [t] is unaffected. *)

val ruleset : t -> Ruleset.t
val rule_names : t -> string list
val stats : t -> (string * Eca.stats) list
val total_condition_evaluations : t -> int
val live_instances : t -> int
(** Stored partial matches across all rules plus the shared beta
    pipelines (Thesis 4 memory proxy). *)

val events_seen : t -> int

(** {1 Scheduler integration (Theses 2-3, 10)}

    The engine never talks to the network itself, but the Web substrate
    needs two static facts to drive it from a discrete-event scheduler:
    which remote resources rule processing can read (prefetched through
    real Get/Response round-trips before the engine runs), and when the
    next rule timer is due (scheduled as an occurrence instead of
    relying on heartbeat polling). *)

val remote_resources : t -> ([ `Doc | `Rdf ] * string) list
(** Remote URIs any rule condition, embedded action condition, visible
    view body, or procedure body can touch.  Sorted, deduplicated;
    recomputed by {!load_ruleset}. *)

val clocked_remote_resources : t -> ([ `Doc | `Rdf ] * string) list
(** Same, restricted to timer-bearing rules — the prefetch set for
    engine {!advance}.  Empty when no rule has absence timers. *)

val next_deadline : t -> Clock.time option
(** Earliest pending absence deadline across all rules ([None] when no
    timer is armed).  Event-derivation timers are not included; a
    periodic heartbeat still covers those. *)

(** {1 Dispatch observability} *)

val metrics : t -> Obs.Metrics.t
(** The engine's registry: the dispatch counters
    ([engine.dispatch_lookups]: event batches routed through the
    sub-index; [engine.rules_fed]: (rule, event) feeds that passed
    dispatch; [engine.rules_skipped]: rules not even visited for a
    batch; [engine.clock_advances]: timer-only advances of skipped
    absence rules — all zero under [~index:false]) and
    [engine.events_seen], plus pull cells sampling the per-rule and
    join-level aggregates ([engine.live_instances],
    [engine.condition_evaluations], [engine.join.*]).  When tracing is
    on ({!Obs.set_enabled}), {!handle_event} also emits an [event] span
    with nested [detect] / [firing] spans per reacting rule. *)

val join_stats : t -> Incremental.join_stats
(** Join-level counters summed over every compiled rule engine, the
    event-derivation network and the shared beta pipelines:
    hash-partition probes, candidate pairs enumerated vs skipped,
    instances pruned by window/horizon retention.  [index] also selects
    the storage mode of these inner engines (hash-partitioned vs
    nested-loop joins), so comparing [join_stats] across the two modes
    measures the composite-event hot path in isolation — and comparing
    [pairs_probed] across [~share] modes measures the cross-rule join
    sharing (BENCH_rules' composite sweep). *)

val subindex_stats : t -> Sub_index.stats option
(** Counters of the rule-atom sub-index ([None] under [~index:false],
    the full scan).  Its cells also live in {!metrics}
    under [subindex.*]. *)

val alpha_stats : t -> Alpha.stats option
(** Counters of the shared alpha network ([None] under [~share:false]):
    distinct nodes vs registrations (the sharing factor), real
    evaluations vs memo hits (the shared-node hit rate), and fanout.
    Its cells also live in {!metrics} under [alpha.*]. *)

val beta_stats : t -> Beta.stats option
(** Counters of the shared beta network ([None] under [~share:false]):
    distinct pipelines vs registrations, real pipeline steps vs memo
    hits, fanout, and join pairs probed inside shared pipelines.  Its
    cells also live in {!metrics} under [beta.*]. *)

val beta_join_stats : t -> Incremental.join_stats option
(** The shared-pipeline share of {!join_stats}, on its own. *)
