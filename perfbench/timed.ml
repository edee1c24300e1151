(* The untraced, timed run: the end-to-end metrics. *)

open Common

type metric = { name : string; value : float; unit_ : string }

type result = {
  metrics : metric list;
  attempted : int;
  failed : int;
  notes : string list;  (** human-readable lines printed before the result *)
}

(* The runtime keeps the heap it has grown, and each episode's garbage
   leaves it more fragmented, so the peak is read once the first episode
   has ended: the peak of one network's life, not of how many episodes
   the run fitted in. *)
let heap_peak_mb () =
  let s = Gc.quick_stat () in
  float_of_int (s.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

(* One set-up and its time in seconds, after a full collection, so the
   previous network's garbage is neither charged to it nor live beside
   it. *)
let timed_setup ?digest ?episode (w : Common.t) =
  Gc.full_major ();
  let t0 = now_ns () in
  let l = Driver.setup ?digest ?episode w in
  (l, ms_since t0 /. 1000.)

(* Set up, and again while the set-ups so far took under 1.5 s (up to
   15 times: cheap set-ups are noisy), keeping the last network and
   every set-up time. *)
let setup_repeated ?digest (w : Common.t) =
  let rec go times =
    let l, s = timed_setup ?digest w in
    let times = s :: times in
    if List.length times >= 15 || List.fold_left ( +. ) 0. times >= 1.5 then (l, times) else go times
  in
  go []

let verdict_notes (v : Driver.verdict) =
  List.map
    (fun (name, e, o) ->
      Printf.sprintf "check %-28s expected %8d observed %8d%s" name e o (if e = o then "" else "  MISMATCH"))
    v.Driver.checks
  @ [
      Printf.sprintf "rule errors %d, fetch failures %d, undelivered messages %d" v.Driver.rule_errors
        v.Driver.fetch_failures v.Driver.undelivered;
    ]

(* The verdicts of several episodes as one: counts and failures add up. *)
let merge_verdicts (a : Driver.verdict) (b : Driver.verdict) =
  {
    Driver.checks = List.map2 (fun (name, e, o) (_, e', o') -> (name, e + e', o + o')) a.Driver.checks b.Driver.checks;
    rule_errors = a.Driver.rule_errors + b.Driver.rule_errors;
    fetch_failures = a.Driver.fetch_failures + b.Driver.fetch_failures;
    undelivered = a.Driver.undelivered + b.Driver.undelivered;
    failed = a.Driver.failed + b.Driver.failed;
  }

type episode = {
  walls : float list;  (** wall time of each timed tick, ms *)
  timed_stimuli : int;
  cpu : float;  (** process CPU seconds over the timed ticks *)
  verdict : Driver.verdict;
  replica_failed : int;
  replica_note : string list;
  attempted : int;  (** stimuli of every tick: warm-up, timed and drain *)
  inputs : (string * float) list;  (** the generator's characterisation *)
  heap_mb : float;  (** {!heap_peak_mb} when the episode's checks are done *)
}

(* One network's life: warm-up ticks, [w.episode_ticks] timed ticks
   (adding each tick's wall time to [measured]), drain ticks, then the
   output checks. *)
let episode ~compared ~measured ~index (w : Common.t) l =
  for _ = 1 to w.warmup_ticks do
    ignore (Driver.tick l)
  done;
  let walls = ref [] and timed = ref 0 and stimuli = ref 0 in
  let cpu0 = cpu_s () in
  while !timed < w.episode_ticks do
    let n, ms = Driver.tick l in
    walls := ms :: !walls;
    incr timed;
    stimuli := !stimuli + n;
    measured := !measured +. ms
  done;
  let cpu = cpu_s () -. cpu0 in
  Driver.drain l;
  let verdict = Driver.verify l in
  let heap_mb = heap_peak_mb () in
  let replica_failed, replica_note =
    if not compared then (0, [])
    else begin
      let digest = Driver.digest l in
      (* the sequential oracle: the same ticks on one domain must give
         bit-identical firings, message trace and stores *)
      let r = Driver.setup ~domains:1 ~digest:true ~episode:index w in
      for _ = 1 to w.warmup_ticks + !timed do
        ignore (Driver.tick r)
      done;
      Driver.drain r;
      let d1 = Driver.digest r in
      let same = String.equal d1 digest in
      ( (if same then 0 else 1),
        [
          Printf.sprintf "output digest %s" digest;
          Printf.sprintf "sequential replica digest %s: %s" d1 (if same then "identical" else "DIFFERS");
        ] )
    end
  in
  {
    walls = !walls;
    timed_stimuli = !stimuli;
    cpu;
    verdict;
    replica_failed;
    replica_note;
    attempted = l.Driver.stimuli;
    inputs = l.Driver.gen.characterise ();
    heap_mb;
  }

(* Episodes start while fewer than [seconds] of timed ticks have been
   measured, or fewer than two set-ups timed; every episode started is
   completed, so the measured phase ends at the first episode boundary
   past [seconds].  [setup_s] is the median of every set-up: the first
   network's repeated ones and each later episode's. *)
let run ~seconds (w : Common.t) =
  (* only a partitioned run compares its outputs with another run's *)
  let compared = w.domains > 1 in
  let budget = float_of_int seconds *. 1000. in
  let measured = ref 0. in
  let rec go l setups acc =
    let acc = episode ~compared ~measured ~index:(List.length acc) w l :: acc in
    if !measured < budget || List.length setups < 2 then begin
      let l, s = timed_setup ~digest:compared ~episode:(List.length acc) w in
      go l (s :: setups) acc
    end
    else (setups, List.rev acc)
  in
  let l, setups = setup_repeated ~digest:compared w in
  let setups, episodes = go l setups [] in
  let heap_mb = (List.hd episodes).heap_mb in
  let sum f = List.fold_left (fun acc e -> acc + f e) 0 episodes in
  let walls = List.concat_map (fun e -> e.walls) episodes in
  let timed_stimuli = sum (fun e -> e.timed_stimuli) in
  let timed_ticks = List.length walls in
  let cpu = List.fold_left (fun acc e -> acc +. e.cpu) 0. episodes in
  let v = List.fold_left merge_verdicts (List.hd episodes).verdict (List.map (fun e -> e.verdict) (List.tl episodes)) in
  let last = List.nth episodes (List.length episodes - 1) in
  let failed = v.Driver.failed + sum (fun e -> e.replica_failed) in
  let attempted = sum (fun e -> e.attempted) in
  let wall_s = List.fold_left ( +. ) 0. walls /. 1000. in
  let kev = float_of_int timed_stimuli /. 1000. in
  let metrics =
    [
      { name = "events_per_s"; value = ratio (float_of_int timed_stimuli) wall_s; unit_ = "1/s" };
      { name = "tick_ms_p50"; value = median walls; unit_ = "ms" };
      { name = "tick_ms_p99"; value = quantile 0.99 walls; unit_ = "ms" };
      { name = "cpu_ms_per_kevent"; value = ratio (cpu *. 1000.) kev; unit_ = "ms" };
      { name = "setup_s"; value = median setups; unit_ = "s" };
      { name = "heap_peak_mb"; value = heap_mb; unit_ = "MB" };
    ]
  in
  let n_episodes = List.length episodes in
  let notes =
    List.concat
      (List.mapi
         (fun i e -> List.map (fun (k, x) -> Printf.sprintf "input e%-3d %-32s %g" i k x) e.inputs)
         episodes)
    @ verdict_notes v
    @ [
        Printf.sprintf "episodes: %d, each a fresh network with %d timed ticks; %d set-ups timed" n_episodes
          w.episode_ticks (List.length setups);
        Printf.sprintf "ticks: %d warm-up and %d drain per episode, %d timed in all (%d stimuli); %d stimuli attempted"
          w.warmup_ticks w.drain_ticks timed_ticks timed_stimuli attempted;
        Printf.sprintf "tick_ms_p50 and tick_ms_p99 over %d samples" timed_ticks;
      ]
    @ last.replica_note
    @ (if n_episodes > 1 && sum (fun e -> e.replica_failed) > 0 then
         [ Printf.sprintf "sequential replica digests differ in %d of %d episodes" (sum (fun e -> e.replica_failed)) n_episodes ]
       else [])
    @ [ Printf.sprintf "error_rate %g (%d failed / %d attempted)" (iratio failed attempted) failed attempted ]
  in
  { metrics; attempted; failed; notes }
