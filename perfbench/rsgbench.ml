(* One pass of one benchmark workload in this process; run.py starts
   the passes and turns their records into the reported metrics.

   rsgbench.exe --workload W --seed N --seconds S
                [--mode timed|traced|setup] [--jobs K] [--domains D]
                [--work-dir DIR]

   The last line of standard output is the pass record (JSON). *)

open Common

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let mode = ref "timed" and jobs = ref 0 and domains = ref 1 in
  let work_dir = ref ".bench_build/perfbench-work" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_float seconds, "S");
      ("--mode", Arg.Set_string mode, "timed|traced|setup");
      ("--jobs", Arg.Set_int jobs, "K: run exactly K jobs (K > 0)");
      ("--domains", Arg.Set_int domains, "D");
      ("--work-dir", Arg.Set_string work_dir, "DIR") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "rsgbench.exe --workload NAME --seed N --seconds S [--mode M]";
  let mode =
    match !mode with
    | "timed" -> Timed
    | "traced" -> Traced
    | "setup" -> Setup
    | m -> prerr_endline ("unknown mode " ^ m); exit 2
  in
  let opts =
    { workload = !workload; seed = !seed; seconds = !seconds; mode;
      jobs = (if !jobs > 0 then Some !jobs else None); domains = !domains; work_dir = !work_dir }
  in
  let run =
    match !workload with
    | "verify-cold" -> Wl_verify.run
    | "place-anneal" -> Wl_place.run
    | "regen-edit" -> Wl_regen.run
    | "serve-mix" -> Wl_serve.run
    | w -> prerr_endline ("unknown workload " ^ w); exit 2
  in
  print_result opts (run opts)
