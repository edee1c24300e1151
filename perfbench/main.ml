(* Command line of the end-to-end benchmark:

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Prints the environment record, the workload characterisation, the
   output checks and every metric with its unit, then as its last line
   one JSON object {"correct", "attempted", "failed", "metrics"}:
   [--trace 0] gives the end-to-end metrics of an untraced run,
   [--trace 1] the per-layer metrics of the traced layer ladder.  See
   README.md. *)

open Perfbench

(* A metric that could not be computed fails the run rather than being
   reported as a number. *)
let print_result ~attempted ~failed metrics =
  (match List.find_opt (fun (_, v, _) -> not (Float.is_finite v)) metrics with
  | Some (name, _, _) ->
      Printf.eprintf "metric %s is not a finite number\n" name;
      exit 1
  | None -> ());
  let fields =
    List.map (fun (name, value, unit_) -> Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name value unit_) metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" (failed = 0) attempted
    failed (String.concat ", " fields)

(* The escape hatches select reference paths compiled into the runtime;
   a benchmark run under one would silently measure an oracle. *)
let hatches_set () =
  Array.to_list (Unix.environment ())
  |> List.filter (fun kv -> String.length kv > 8 && String.sub kv 0 8 = "XCHANGE_")

let environment ~nproc ~seed =
  let g = Gc.get () in
  [
    Printf.sprintf "env nproc %d" nproc;
    Printf.sprintf "env recommended_domain_count %d" (Domain.recommended_domain_count ());
    Printf.sprintf "env ocaml %s" Sys.ocaml_version;
    Printf.sprintf "env gc minor_heap_size %d words, space_overhead %d" g.Gc.minor_heap_size g.Gc.space_overhead;
    Printf.sprintf "env OCAMLRUNPARAM %s" (Option.value ~default:"(unset)" (Sys.getenv_opt "OCAMLRUNPARAM"));
    Printf.sprintf "env seed %d" seed;
  ]

(* Where the traced run writes its spans, relative to the checkout root. *)
let spans_dir = "perfbench/out"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let nproc = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S length of the timed run's measured phase (the traced run measures one episode)");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run, or the traced layer ladder");
      ("--nproc", Arg.Set_int nproc, "N processors available to the process (recorded only)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  (match hatches_set () with
  | [] -> ()
  | hs ->
      Printf.eprintf "refusing to measure with escape hatches set: %s\n" (String.concat " " hs);
      exit 2);
  match Workloads.find ~seed:!seed !workload with
  | None ->
      Printf.eprintf "unknown workload %S (known: %s)\n" !workload (String.concat ", " Workloads.names);
      exit 2
  | Some w ->
      List.iter print_endline (environment ~nproc:!nproc ~seed:!seed);
      Printf.printf "workload %s: %s\n%!" !workload (Workloads.why !workload);
      if !trace = 0 then begin
        let r = Timed.run ~seconds:!seconds w in
        List.iter print_endline r.Timed.notes;
        let metrics = List.map (fun m -> (m.Timed.name, m.Timed.value, m.Timed.unit_)) r.Timed.metrics in
        List.iter (fun (n, v, u) -> Printf.printf "metric %-20s %.6g %s\n" n v u) metrics;
        print_result ~attempted:r.Timed.attempted ~failed:r.Timed.failed metrics
      end
      else begin
        (try Sys.mkdir spans_dir 0o755 with Sys_error _ -> ());
        let spans_path = Filename.concat spans_dir (Printf.sprintf "spans-%s-seed%d.json" !workload !seed) in
        (* the traced network run is one episode, the unit of work the
           timed run repeats *)
        let r = Ladder.run ~ticks:w.Common.episode_ticks ~spans_path w in
        List.iter print_endline r.Ladder.notes;
        List.iter (fun (n, v, u) -> Printf.printf "metric %-36s %.6g %s\n" n v u) r.Ladder.metrics;
        print_result ~attempted:r.Ladder.attempted ~failed:r.Ladder.failed r.Ladder.metrics
      end
