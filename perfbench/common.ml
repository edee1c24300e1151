(* Shared vocabulary of the benchmark: the monotonic clock, order
   statistics, seeded samplers, the workload interface and host
   provisioning.  Nothing here touches a network run directly. *)

open Xchange

(* ------------------------------------------------------------------ *)
(* Clock and statistics *)

let now_ns () = Monotonic_clock.now ()
let ms_between a b = Int64.to_float (Int64.sub b a) /. 1e6
let ms_since t0 = ms_between t0 (now_ns ())

(* Process CPU time (user + system, every domain of the process). *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* [q]-quantile by linear interpolation between order statistics (the
   same rule as Python's [statistics.quantiles(method="inclusive")]). *)
let quantile q xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      let pos = q *. float_of_int (n - 1) in
      let i = int_of_float pos in
      let frac = pos -. float_of_int i in
      if i + 1 >= n then a.(n - 1) else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs
let ratio a b = if b = 0. then 0. else a /. b
let iratio a b = ratio (float_of_int a) (float_of_int b)

(* ------------------------------------------------------------------ *)
(* Seeded sampling *)

(* One independent stream per (seed, workload salt, stream tag): a tick's
   inputs depend on the seed and the tick number only. *)
let rng ~seed ~salt tag = Random.State.make [| seed; salt; tag; 0x5eed |]

(* The stream of tick [k] (k < 10^6) of episode [episode]; episode 0's
   ticks are tags 1_000_000 + k. *)
let tick_rng ~seed ~salt ~episode k = rng ~seed ~salt ((1_000_000 * (episode + 1)) + k)

(* Zipf(s) over ranks 1..n as a cumulative table; [draw] returns a
   0-based rank. *)
type zipf = float array

let zipf ~s n : zipf =
  let w = Array.init n (fun i -> 1. /. (float_of_int (i + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let draw (z : zipf) st =
  let u = Random.State.float st 1. in
  let lo = ref 0 and hi = ref (Array.length z - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if z.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

(* A seeded permutation of 0..n-1 (Fisher-Yates). *)
let permutation st n =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* ------------------------------------------------------------------ *)
(* Workload interface *)

type stimulus = { to_ : string; label : string; sender : string; payload : Term.t }

type host_spec = {
  host : string;
  ruleset : unit -> Ruleset.t;  (** compiled on every provisioning: part of set-up *)
  docs : (string * Term.t) list;  (** initial store contents *)
  registry : bool;  (** attach a {!Pubsub.Registry} to the store *)
}

(* The generator of one run: a stream of ticks plus the model that
   knows, in closed form, what the system must have done with them. *)
type gen = {
  next_tick : drain:bool -> stimulus list;
      (** the next tick's stimuli; [drain] stops new work and emits only
          what earlier stimuli scheduled (late payments, second halves
          of composite pairs) *)
  expected : unit -> (string * int) list;  (** named counts the model predicts *)
  characterise : unit -> (string * float) list;  (** input properties, as shares with their base *)
}

type t = {
  domains : int;
  capture_domains : int;
      (** domains of the traced run's capture replay, which is where the
          ladder reads the Partition counters and checks that a
          partitioned replay reproduces the network run's outputs *)
  tick_ms : Clock.span;  (** virtual length of one driver tick *)
  warmup_ticks : int;
  drain_ticks : int;
  episode_ticks : int;
      (** timed ticks per episode.  Node state grows with every event a
          node processes (dedup sets, logs, snapshots of both), so one
          long network would make a tick's cost depend on how many ticks
          the machine fitted in before it.  The timed run sets up a
          fresh network, fed a stream of its own, for every
          [episode_ticks] timed ticks, so each timed tick is one of a
          network's first [episode_ticks] *)
  hosts : host_spec list;
  gen : int -> gen;
      (** [gen e] is a fresh generator for episode [e] of a run (see
          [episode_ticks]): the same seed and episode give the same
          stream, and every episode starts from the provisioned state *)
  observe : Network.t -> sent:(string -> int) -> (string * int) list;
      (** the counts [expected] names, as the run produced them; [sent]
          gives the messages each host (or ["external"]) transmitted *)
}

(* ------------------------------------------------------------------ *)
(* Provisioning *)

let parse src =
  match Parser.parse_program src with Ok rs -> rs | Error e -> failwith ("perfbench: " ^ e)

(* A durable node with its store loaded and a genesis checkpoint, so the
   log starts from a snapshot of the provisioned state. *)
let provision ?snapshot_every (h : host_spec) =
  let n = node_exn ?snapshot_every ~host:h.host (h.ruleset ()) in
  List.iter (fun (path, doc) -> Store.add_doc (Node.store n) path doc) h.docs;
  let registry = if h.registry then Some (Pubsub.Registry.attach (Node.store n)) else None in
  Node.checkpoint n ~at:Clock.origin;
  (n, registry)

(* A per-rule counter summed over hosts, keyed by unqualified name. *)
let rule_stat (get : Eca.stats -> int) nodes =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun n ->
      List.iter
        (fun (qname, (s : Eca.stats)) ->
          let name =
            match String.rindex_opt qname '.' with
            | Some i -> String.sub qname (i + 1) (String.length qname - i - 1)
            | None -> qname
          in
          let prev = Option.value ~default:0 (Hashtbl.find_opt tbl name) in
          Hashtbl.replace tbl name (prev + get s))
        (Engine.stats (Node.engine n)))
    nodes;
  fun name -> Option.value ~default:0 (Hashtbl.find_opt tbl name)

let rule_firings = rule_stat (fun s -> s.Eca.firings)

let nodes_of net = List.map (Network.node_exn net) (Network.hosts net)
