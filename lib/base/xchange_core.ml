module Escape = struct
  let disabled var =
    match Sys.getenv_opt var with None | Some "" | Some "0" -> false | Some _ -> true

  (* read once: engines capture these at build time, and a flag that
     flips mid-run would leave compiled state inconsistent with the
     dispatch decisions made from it *)
  let no_plan = disabled "XCHANGE_NO_PLAN"
  let no_share = disabled "XCHANGE_NO_SHARE"
  let no_par = disabled "XCHANGE_NO_PAR"
  let no_wal = disabled "XCHANGE_NO_WAL"

  (* [XCHANGE_DOMAINS=n] is not a hatch but the same read-once
     discipline applies: a network sized mid-run would tear its
     host-to-partition map. *)
  let domains =
    match Sys.getenv_opt "XCHANGE_DOMAINS" with
    | None | Some "" -> None
    | Some s -> (
        match int_of_string_opt s with Some n when n >= 1 -> Some n | _ -> None)

  let all () =
    [
      ( "XCHANGE_NO_PLAN",
        no_plan,
        "interpret queries instead of running compiled plans (Simulate/Plan)" );
      ( "XCHANGE_NO_SHARE",
        no_share,
        "per-rule matchers and join state instead of the shared alpha/beta networks" );
      ( "XCHANGE_NO_PAR",
        no_par,
        "single-timeline sequential scheduler instead of sharded domains" );
      ( "XCHANGE_NO_WAL",
        no_wal,
        "volatile nodes (no write-ahead log, snapshots, or recovery)" );
    ]
end

(* Domain-local state with merge-on-snapshot.

   OCaml 5 domains must not share the process-global mutable caches and
   work counters the query/event layers grew while the engine was
   single-domain (plan LRU, regex LRU, prune counters, matcher-run
   counters).  [Domain_local] gives each domain its own instance,
   created on first touch, and keeps every instance on a registry so
   whole-process accounting ([fold]) still works: harnesses snapshot
   from the orchestrating domain while workers are parked at a barrier,
   which is the only time snapshots are taken. *)
module Domain_local = struct
  type 'a t = {
    key : 'a Domain.DLS.key;
    mu : Mutex.t;
    mutable instances : 'a list;
  }

  let create mk =
    (* recursive knot: the DLS initialiser registers the new instance *)
    let mu = Mutex.create () in
    let cell = ref None in
    let key =
      Domain.DLS.new_key (fun () ->
          let v = mk () in
          (match !cell with
          | Some t ->
              Mutex.lock t.mu;
              t.instances <- v :: t.instances;
              Mutex.unlock t.mu
          | None -> ());
          v)
    in
    let t = { key; mu; instances = [] } in
    cell := Some t;
    (* materialise the creating domain's instance eagerly so
       single-domain programs behave exactly as before *)
    ignore (Domain.DLS.get key);
    t

  let get t = Domain.DLS.get t.key

  let fold t ~init ~f =
    Mutex.lock t.mu;
    let r = List.fold_left f init t.instances in
    Mutex.unlock t.mu;
    r

  let iter t f = fold t ~init:() ~f:(fun () v -> f v)

  (* Domain-local counters: the common case.  [total] folds every
     domain's count; [reset] zeroes them all (harness-only, called
     while no worker domain is running). *)
  module Counter = struct
    type nonrec t = int ref t

    let create () : t = create (fun () -> ref 0)
    let incr (t : t) = incr (get t)
    let add (t : t) n = let r = get t in r := !r + n
    let total (t : t) = fold t ~init:0 ~f:(fun acc r -> acc + !r)
    let reset (t : t) = iter t (fun r -> r := 0)
  end
end
