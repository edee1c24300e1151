(* The benchmark's own tests, on tiny instances of every workload:

   - the generator is a pure function of the seed;
   - runs under different seeds satisfy each workload's closed-form
     output checks;
   - the output check fails when one expected count is perturbed;
   - the layer ladder's rungs fire exactly the rules the network run
     fired, and the WAL rung re-appends every record (skipped under
     XCHANGE_NO_WAL, which leaves no log to replay).

   Every other check runs under every escape hatch. *)

open Xchange
open Perfbench

let failures = ref 0

let check name cond =
  if not cond then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end
  else Printf.printf "ok   %s\n%!" name

let workload ~seed name = Option.get (Workloads.find ~size:Workloads.Tiny ~seed name)

let stream ?(episode = 0) ~seed name ticks =
  let g = (workload ~seed name).Common.gen episode in
  List.init ticks (fun k -> g.Common.next_tick ~drain:(k >= ticks - 2))

let same_stream a b =
  List.length a = List.length b
  && List.for_all2
       (fun xs ys ->
         List.length xs = List.length ys
         && List.for_all2
              (fun (x : Common.stimulus) (y : Common.stimulus) ->
                String.equal x.to_ y.to_ && String.equal x.label y.label && String.equal x.sender y.sender
                && Term.equal x.payload y.payload)
              xs ys)
       a b

let run_ticks ?digest ?episode ~seed name ticks =
  let l = Driver.setup ?digest ?episode (workload ~seed name) in
  for _ = 1 to ticks do
    ignore (Driver.tick l)
  done;
  Driver.drain l;
  l

let () =
  List.iter
    (fun name ->
      check (name ^ ": same seed, same inputs") (same_stream (stream ~seed:5 name 40) (stream ~seed:5 name 40));
      check (name ^ ": other seed, other inputs") (not (same_stream (stream ~seed:5 name 40) (stream ~seed:6 name 40)));
      check (name ^ ": other episode, other inputs")
        (not (same_stream (stream ~seed:5 name 40) (stream ~episode:1 ~seed:5 name 40)));
      List.iter
        (fun (seed, episode) ->
          let v = Driver.verify (run_ticks ~episode ~seed name 40) in
          check
            (Printf.sprintf "%s: seed %d episode %d satisfies the closed form (%d checks)" name seed episode
               (List.length v.Driver.checks))
            (v.Driver.failed = 0 && v.Driver.checks <> []))
        [ (1, 0); (2, 0); (3, 0); (3, 2) ];
      (* perturb each expected count in turn: every one must be caught *)
      let l = run_ticks ~seed:1 name 40 in
      let expected = l.Driver.gen.Common.expected () in
      List.iter
        (fun (target, _) ->
          let perturbed () = List.map (fun (k, e) -> if String.equal k target then (k, e + 1) else (k, e)) expected in
          let l' = { l with Driver.gen = { l.Driver.gen with Common.expected = perturbed } } in
          let v = Driver.verify l' in
          if v.Driver.failed <> 1 then check (Printf.sprintf "%s: perturbed %s is caught" name target) false)
        expected;
      check (Printf.sprintf "%s: each of %d perturbed counts is caught" name (List.length expected)) true;
      (* the ladder replays write-ahead logs, which this hatch turns off *)
      if Escape.no_wal then Printf.printf "skip %s: ladder (XCHANGE_NO_WAL: no logs to replay)\n%!" name
      else begin
        let r = Ladder.run ~ticks:30 (workload ~seed:4 name) in
        check (name ^ ": ladder rungs agree, outputs verified") (r.Ladder.failed = 0)
      end)
    Workloads.names;
  (* the two market variants give bit-identical outputs *)
  let digest name = Driver.digest (run_ticks ~digest:true ~seed:7 name 40) in
  check "market_2dom output digest equals market's" (String.equal (digest "market") (digest "market_2dom"));
  (* a short timed run in several episodes, each checked and compared
     with its sequential replica *)
  let r = Timed.run ~seconds:1 { (workload ~seed:8 "market_2dom") with Common.episode_ticks = 50 } in
  let one_episode = List.exists (String.starts_with ~prefix:"episodes: 1,") r.Timed.notes in
  check "market_2dom timed run: several episodes, every one verified"
    ((not one_episode) && r.Timed.failed = 0 && r.Timed.attempted > 0);
  if !failures > 0 then begin
    Printf.printf "%d failure(s)\n" !failures;
    exit 1
  end
