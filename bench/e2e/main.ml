(* drfbench: time to a DRF-guarantee verdict, end to end and per layer.

   dune exec bench/e2e/main.exe -- [--workload NAME] [--seed N]
     [--seconds S] [--trace 0|1 | --traced]

   Without --workload every workload runs in turn.  Each workload prints
   its metrics by name with their unit, then one JSON line; the last line
   of the output is the JSON of the last workload.  The exit code is 1
   when any verdict differs from its known answer. *)

open Drfbench

let () =
  let cfg = ref Runner.default and workloads = ref [] and traced = ref false in
  let workload w =
    if List.mem w Workload.names then workloads := !workloads @ [ w ]
    else raise (Arg.Bad ("unknown workload " ^ w))
  in
  Arg.parse
    [
      ( "--workload",
        Arg.String workload,
        "NAME one of " ^ String.concat ", " Workload.names );
      ( "--seed",
        Arg.Int (fun seed -> cfg := { !cfg with seed }),
        "N workload seed (default 1)" );
      ( "--seconds",
        Arg.Float (fun seconds -> cfg := { !cfg with seconds }),
        "S timed rounds run for at least S seconds (default 10)" );
      ( "--trace",
        Arg.Int (fun t -> traced := t <> 0),
        "0|1 1 reports the per-layer metrics of a traced round" );
      ("--traced", Arg.Set traced, " same as --trace 1");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "drfbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]";
  let workloads = if !workloads = [] then Workload.names else !workloads in
  let ok =
    List.fold_left
      (fun ok wname ->
        let r = Runner.run ~traced:!traced !cfg wname in
        Printf.printf "drfbench %s seed %d%s: closed loop, 1 client, jobs 1\n"
          wname !cfg.seed
          (if !traced then " (traced)" else "");
        List.iter (Printf.printf "  %s\n") r.notes;
        List.iter
          (fun (name, unit, v) ->
            Printf.printf "  %-32s %16s %s\n" name
              (match v with Some x -> Printf.sprintf "%.6g" x | None -> "null")
              unit)
          r.metrics;
        print_endline (Safeopt_obs.Json.to_string (Runner.json r));
        ok && r.correct)
      true workloads
  in
  if not ok then exit 1
