(* The [rulebase] workload: one monitor host holding a large rule base,
   fed by a second host.

   Rules are written over a fixed set of distinct patterns, with the
   number of rules per pattern Zipf-distributed (s = 1, every pattern
   with at least one rule), so a few head patterns have on the order of
   10^3 subscribers and most have one or two.  Half the patterns are
   atomic, half are [within]-bounded [seq]/[and] composites; every rule
   names its variables after itself, so any sharing across rules must go
   through canonicalisation.  Stimuli are uniform over patterns; a
   composite pattern's stimulus is a pair (first half, then the second
   half on the next tick) joined on a value unique to the pair.  About
   1% of rules raise an echo back to the feeder; the rest do nothing. *)

open Xchange
open Common

type size = { rules : int; patterns : int; events_per_tick : int }

(* One fresh event per tick (second halves due at that instant ride
   along), so a tick's wall time is one event's event-to-reaction
   latency; tiny instances inject several at one instant, so the tests
   also cover stimuli that share a tick. *)
let full = { rules = 10_000; patterns = 2_000; events_per_tick = 1 }
let tiny = { rules = 60; patterns = 12; events_per_tick = 3 }

let feeder = "feeder.example"
let monitor = "monitor.example"
let tick_ms = Clock.seconds 1
let window = Clock.seconds 5
let echo_every = 100

type kind = Atomic | Seq | And

let kind p = if p mod 2 = 0 then Atomic else if p mod 4 = 1 then Seq else And

(* Rules per pattern: one each, plus the rest spread by Zipf weight
   (largest-remainder rounding, so the total is exact), over a seeded
   ranking of the patterns. *)
let fanout ~seed size =
  let n = size.patterns and extra = size.rules - size.patterns in
  let w = Array.init n (fun i -> 1. /. float_of_int (i + 1)) in
  let total = Array.fold_left ( +. ) 0. w in
  let share = Array.map (fun x -> float_of_int extra *. x /. total) w in
  let base = Array.map (fun x -> int_of_float x) share in
  let left = extra - Array.fold_left ( + ) 0 base in
  let order = Array.init n Fun.id in
  Array.sort
    (fun a b -> compare (share.(b) -. float_of_int base.(b)) (share.(a) -. float_of_int base.(a)))
    order;
  for i = 0 to left - 1 do
    base.(order.(i)) <- base.(order.(i)) + 1
  done;
  let rank = permutation (rng ~seed ~salt:23 1) n in
  Array.init n (fun p -> 1 + base.(rank.(p)))

(* Rule [r] of pattern [p]; [echo] rules raise an echo to the feeder. *)
let rule ~p ~r ~echo =
  let key = Printf.sprintf "p%d" p and x = Printf.sprintf "X%d" r in
  let atom label =
    Event_query.on ~label
      (Qterm.el label [ Qterm.pos (Qterm.el "k" [ Qterm.pos (Qterm.txt key) ]); Qterm.pos (Qterm.el "v" [ Qterm.pos (Qterm.var x) ]) ])
  in
  let on =
    match kind p with
    | Atomic -> atom "e"
    | Seq -> Event_query.within (Event_query.seq [ atom "a"; atom "b" ]) window
    | And -> Event_query.within (Event_query.conj [ atom "a"; atom "b" ]) window
  in
  let action =
    if echo then
      Action.raise_event ~to_:feeder ~label:"echo" (Construct.cel "echo" [ Construct.cel "k" [ Construct.ctext key ] ])
    else Action.Nop
  in
  Eca.make ~name:(Printf.sprintf "r%d" r) ~on action

(* Every rule as (pattern, rule number, echoes), with the fanout and the
   number of echo rules of each pattern. *)
let layout ~seed size =
  let fan = fanout ~seed size in
  let r = ref 0 in
  let rules = ref [] and echoes = Array.make size.patterns 0 in
  Array.iteri
    (fun p f ->
      for _ = 1 to f do
        let echo = !r mod echo_every = 0 in
        if echo then echoes.(p) <- echoes.(p) + 1;
        rules := (p, !r, echo) :: !rules;
        incr r
      done)
    fan;
  (fan, echoes, List.rev !rules)

let feeder_program =
  {|
ruleset feeder {
  rule forward-e:
    on fe{{k[var K], v[var V]}}
    do raise to "monitor.example" e e[k[$K], v[$V]]

  rule forward-a:
    on fa{{k[var K], v[var V]}}
    do raise to "monitor.example" a a[k[$K], v[$V]]

  rule forward-b:
    on fb{{k[var K], v[var V]}}
    do raise to "monitor.example" b b[k[$K], v[$V]]

  rule echo:
    on echo{{k[var K]}}
    do nop
}
|}

let hosts ~seed size =
  let _, _, rules = layout ~seed size in
  [
    { host = feeder; ruleset = (fun () -> parse feeder_program); docs = []; registry = false };
    {
      host = monitor;
      ruleset =
        (fun () -> Ruleset.make ~rules:(List.map (fun (p, r, echo) -> rule ~p ~r ~echo) rules) "monitor");
      docs = [];
      registry = false;
    };
  ]

let gen ~seed size episode =
  let fan, echoes, _ = layout ~seed size in
  let tick = ref 0 and value = ref 0 in
  let second_halves = ref [] in
  let events = ref 0 and firing_events = ref 0 and expected_firings = ref 0 and expected_echoes = ref 0 in
  let multi = ref 0 and multi_stimuli = ref 0 in
  let stim label p v =
    incr events;
    if fan.(p) >= 2 then incr multi_stimuli;
    {
      to_ = feeder;
      label;
      sender = "external";
      payload =
        Term.elem label [ Term.elem "k" [ Term.text (Printf.sprintf "p%d" p) ]; Term.elem "v" [ Term.int v ] ];
    }
  in
  (* an event that completes its pattern fires every rule written over it *)
  let fires p =
    incr firing_events;
    if fan.(p) >= 2 then incr multi;
    expected_firings := !expected_firings + fan.(p);
    expected_echoes := !expected_echoes + echoes.(p)
  in
  let next_tick ~drain =
    let k = !tick in
    incr tick;
    let pending = List.rev !second_halves in
    second_halves := [];
    let seconds = List.map (fun (p, v) -> fires p; stim "fb" p v) pending in
    if drain then seconds
    else begin
      let st = tick_rng ~seed ~salt:23 ~episode k in
      let fresh =
        List.init size.events_per_tick (fun _ ->
            let p = Random.State.int st size.patterns in
            incr value;
            match kind p with
            | Atomic ->
                fires p;
                stim "fe" p !value
            | Seq | And ->
                second_halves := (p, !value) :: !second_halves;
                stim "fa" p !value)
      in
      seconds @ fresh
    end
  in
  let expected () =
    [
      ("monitor_firings", !expected_firings);
      ("feeder_firings", !events + !expected_echoes);
      ("echoes", !expected_echoes);
    ]
  in
  let characterise () =
    [
      ("stimuli", float_of_int !events);
      ("pattern_completions", float_of_int !firing_events);
      ("fanout_ge2_share_of_stimuli", iratio !multi_stimuli !events);
      ("fanout_ge2_share_of_completions", iratio !multi !firing_events);
      ("mean_fanout_per_completion", iratio !expected_firings !firing_events);
      ("max_fanout", float_of_int (Array.fold_left max 0 fan));
    ]
  in
  { next_tick; expected; characterise }

let observe net ~sent:_ =
  let f = rule_firings (nodes_of net) in
  [
    ("monitor_firings", Node.firings (Network.node_exn net monitor));
    ("feeder_firings", Node.firings (Network.node_exn net feeder));
    ("echoes", f "echo");
  ]

let make ~seed size =
  {
    domains = 1;
    capture_domains = 1;
    tick_ms;
    warmup_ticks = 20;
    drain_ticks = 1;
    (* compiling 10^4 rules takes 10-15 s, so episodes are long: about
       10 s of ticks, two to a run *)
    episode_ticks = 5000;
    hosts = hosts ~seed size;
    gen = gen ~seed size;
    observe;
  }
