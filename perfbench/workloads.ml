(* The benchmark's workloads by name, each with the reason it is in the
   benchmark, as BENCHMARK.json records it beside the workloads it runs.
   market_2dom is left out of BENCHMARK.json: on a 2-vCPU machine shared
   with other work, a run whose second domain loses its vCPU runs at
   half speed, which no admissible bound absorbs; the traced run of
   market measures the Partition layer instead. *)

type size = Full | Tiny

let table =
  [
    ( "market",
      "the whole path in order: keyed seq/absent joins, view queries over a register, store writes, WAL snapshots; few distinct rules, so sharing is predicted flat; traced run adds a 2-domain replay" );
    ( "market_2dom",
      "market's inputs on 2 domains: the only workload exercising partition windows, rings and barriers; output must be bit-identical to market" );
    ( "rulebase",
      "10^4 rules over 2000 Zipf-shared patterns, half composite: dispatch, alpha, beta and firing fan-out do nearly all the work" );
    ( "pubsub",
      "publish fan-out to 64 hosts with 10% register churn: transport, scheduler, registry match and the register maintenance publishes read" );
  ]

let names = List.map fst table
let why name = Option.value ~default:"" (List.assoc_opt name table)

let find ?(size = Full) ~seed name =
  let pick full tiny = match size with Full -> full | Tiny -> tiny in
  match name with
  | "market" -> Some (Market.make ~seed (pick Market.full Market.tiny))
  | "market_2dom" -> Some (Market.make ~domains:2 ~seed (pick Market.full Market.tiny))
  | "rulebase" -> Some (Rulebase.make ~seed (pick Rulebase.full Rulebase.tiny))
  | "pubsub" -> Some (Pubsub_wl.make ~seed (pick Pubsub_wl.full Pubsub_wl.tiny))
  | _ -> None
