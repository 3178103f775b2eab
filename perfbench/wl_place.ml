(* place-anneal: annealed macro placement scored by hierarchical
   compaction.  One job runs Anneal.run on Place_opt over four seeded
   small-PLA blocks: its own seed, the per-chain memo, no cross-job
   evaluation cache.  2 chains x 32 proposals evaluate about 60
   distinct candidates, so a job stays above 20 ms even if condensation
   gets 20x cheaper.

   Almost all of a job is Hcompact.hier inside Place_opt's evaluate,
   so this is the workload on which compaction gains show. *)

open Common
module Anneal = Rsg_search.Anneal
module Place_opt = Rsg_search.Place_opt
module Hcompact = Rsg_compact.Hcompact

let chains = 2

let iters = 32

let blocks = 4

let rules = Rsg_compact.Rules.default

(* the first [area_jobs] jobs define area_ratio, so it is a function of
   the seed alone, not of how many jobs fit in the window *)
let area_jobs = 12

(* at least 21 jobs in a timed pass, so job_tail_s (the 11th-largest
   latency) is never below the median *)
let min_jobs = 21

(* evaluate calls, seconds and minor words, summed over domains: the
   wrapper runs on whichever domain evaluates the candidate *)
let eval_mu = Mutex.create ()

let eval_calls = ref 0

let eval_secs = ref 0.

let eval_words = ref 0.

let traced_problem =
  let inner = Place_opt.problem in
  {
    inner with
    Anneal.evaluate =
      (fun s ->
        let w0 = Gc.minor_words () in
        let t0 = now () in
        let c = inner.Anneal.evaluate s in
        let dt = now () -. t0 and dw = Gc.minor_words () -. w0 in
        Mutex.lock eval_mu;
        incr eval_calls;
        eval_secs := !eval_secs +. dt;
        eval_words := !eval_words +. dw;
        Mutex.unlock eval_mu;
        c);
  }

let job_blocks opts i =
  let st = rng opts (1000 + i) in
  List.init blocks (fun _ ->
      (Rsg_pla.Gen.generate (random_table st ~inputs:3 ~outputs:2 ~terms:2))
        .Rsg_pla.Gen.cell)

let job_seed opts i = (opts.seed * 7919) + i

let anneal ~domains ~problem ~seed cells =
  Anneal.run ~domains ~chains ~iters ~seed problem (Place_opt.make ~rules cells)

(* untimed oracle: the best arrangement is no worse than the greedy
   start, and compacting it afresh gives its claimed area and a
   DRC-clean layout *)
let oracle (r : Place_opt.state Anneal.result) =
  if r.Anneal.r_cost > r.Anneal.r_initial_cost then
    Error
      (Printf.sprintf "best %d worse than greedy %d" r.Anneal.r_cost
         r.Anneal.r_initial_cost)
  else
    let h = Hcompact.hier ~domains:1 rules (Place_opt.cell r.Anneal.r_best) in
    let area = h.Hcompact.hr_stats.Hcompact.hs_area_after in
    if area <> r.Anneal.r_cost then
      Error (Printf.sprintf "re-compacted area %d, search claimed %d" area r.Anneal.r_cost)
    else if
      not
        (Rsg_drc.Drc.hier_clean
           (Rsg_drc.Drc.check_protos ~domains:1
              (Rsg_layout.Flatten.prototypes h.Hcompact.hr_cell)))
    then Error "compacted best arrangement is not DRC-clean"
    else Ok ()

let run opts =
  let domains = opts.domains in
  (* set-up: build the first job's blocks and anneal them once, untimed *)
  ignore (anneal ~domains ~problem:Place_opt.problem ~seed:0 (job_blocks opts (-1)));
  let setup_s = since_start () in
  if opts.mode = Setup then
    { setup_s; run = no_run; self_checks = []; extra = []; layers = [];
      deterministic = []; shares = [] }
  else begin
    let traced = opts.mode = Traced in
    let problem = if traced then traced_problem else Place_opt.problem in
    (* Obs spans are single-domain: the library's compaction spans are
       read only in a 1-domain pass *)
    if traced && domains = 1 then Obs.enable ();
    let greedy = ref 0 and best = ref 0 in
    let iters_total = ref 0 and computed = ref 0 in
    let run =
      drive opts ~min_jobs (fun i ->
          tag "anneal";
          let cells = job_blocks opts i in
          let r = anneal ~domains ~problem ~seed:(job_seed opts i) cells in
          if i < area_jobs then begin
            greedy := !greedy + r.Anneal.r_initial_cost;
            best := !best + r.Anneal.r_cost
          end;
          iters_total := !iters_total + r.Anneal.r_stats.Anneal.st_iters;
          computed := !computed + r.Anneal.r_stats.Anneal.st_computed;
          fun () -> oracle r)
    in
    Obs.disable ();
    let area_ratio = float_of_int !best /. float_of_int (max 1 !greedy) in
    let layers, deterministic, shares =
      if traced then begin
        let n = float_of_int (List.length run.lats) in
        let per x = x /. n in
        let cands = float_of_int !eval_calls in
        let per_cand x = x /. Float.max 1. cands in
        let cps = cands /. run.window in
        let mwpc = per_cand (!eval_words /. 1e6) in
        if domains = 1 then
          ( [ ("hcompact.s", per (obs_span "hcompact"));
              ("hcompact.condense_s", per (obs_span "hcompact.condense"));
              ("hcompact.stitch_s", per (obs_span "hcompact.stitch"));
              ("hcompact.condensed_per_candidate", per_cand (obs_counter "hcompact.condensed"));
              ("hcompact.mwords_per_candidate", mwpc);
              ("hcompact.constraints", per (obs_counter "hcompact.internal_constraints"));
              ("scanline.generations", per (obs_counter "scanline.generations"));
              ("anneal.candidates", per cands);
              ("anneal.candidates_per_s", cps);
              ( "anneal.memo_frac",
                1. -. (float_of_int !computed /. float_of_int (max 1 !iters_total)) );
              ("place.evaluate_s", per !eval_secs) ],
            [ ("anneal.candidates", cands);
              ("anneal.computed", float_of_int !computed);
              ("place.evaluate_words", !eval_words);
              ("hcompact.condensed", obs_counter "hcompact.condensed");
              ("hcompact.internal_constraints", obs_counter "hcompact.internal_constraints");
              ("scanline.generations", obs_counter "scanline.generations");
              ("scanline.pairs", obs_counter "scanline.pairs") ],
            [ ("hcompact", obs_span "hcompact" /. run.window);
              ("hcompact.condense", obs_span "hcompact.condense" /. run.window);
              ("hcompact.stitch", obs_span "hcompact.stitch" /. run.window);
              ("place.evaluate", !eval_secs /. run.window) ] )
        else
          ( [ ("anneal.candidates_per_s", cps); ("hcompact.mwords_per_candidate", mwpc) ],
            [],
            [] )
      end
      else ([], [], [])
    in
    let self_checks =
      let cells = job_blocks opts 0 in
      let r = anneal ~domains:1 ~problem:Place_opt.problem ~seed:1 cells in
      (* a claimed area below the real one, and a best worse than greedy *)
      let lie = { r with Anneal.r_cost = r.Anneal.r_cost - 1 } in
      let worse = { r with Anneal.r_cost = r.Anneal.r_initial_cost + 1 } in
      [ ("place_claimed_area", Result.is_error (oracle lie));
        ("place_worse_than_greedy", Result.is_error (oracle worse));
        ("drc_narrowed_box", drc_rejects_defect (Place_opt.cell r.Anneal.r_best)) ]
    in
    { setup_s; run; self_checks; extra = [ ("area_ratio", area_ratio) ]; layers;
      deterministic; shares }
  end
