(* serve-mix: the resident daemon under a closed-loop request mix.
   Serve.run runs in this process with 1 worker domain, 1 domain per
   job, the store in the work directory and an in-memory budget below
   the working set; two client threads, one connection each, send
   their next request when the previous one is answered.

   Requests are [generate] with DRC over a hot key set that set-up has
   already generated (repeats hit memory, evicted keys hit the store),
   [generate] of a first-seen key (cold generation and a store write),
   and [drc], [erc] and [compact] on CIF targets that set-up writes
   (today those recompute cold on every request).  The op ratios, the
   skew and the memory budget are assumptions, not measured traffic;
   NOTES.md says what each is meant to stress.  This is the only
   workload through admission, coalescing, the memory cache and the
   JSON framing. *)

open Common
module Serve = Rsg_serve.Serve
module Client = Rsg_serve.Client
module Flatten = Rsg_layout.Flatten

(* a generate spec of a seeded 10-input PLA *)
let pla_spec st name =
  let tt = random_table st ~inputs:10 ~outputs:8 ~terms:28 in
  let rows =
    Rsg_pla.Truth_table.to_strings tt
    |> List.map (fun (i, o) -> i ^ ":" ^ o)
    |> String.concat ","
  in
  Printf.sprintf "%s pla rows=%s" name rows

(* the hot generate keys, hottest first, chosen to cost alike; the draw
   skew is fixed, only the request sequence and the PLA personalities
   come from the seed *)
let gen_specs opts =
  let st = rng opts 1 in
  let pla k = pla_spec st (Printf.sprintf "pla%d" k) in
  [ "m10 multiplier size=10"; pla 0; "ram32x8 ram words=32 bits=8"; "m11 multiplier size=11";
    "dec6 decoder n=6"; pla 1; "ram32x12 ram words=32 bits=12"; "m12 multiplier size=12";
    pla 2; "ram32x16 ram words=32 bits=16"; "m13 multiplier size=13"; pla 3;
    "ram32x10 ram words=32 bits=10"; "m14 multiplier size=14"; pla 4; "ram64x8 ram words=64 bits=8";
    "m9 multiplier size=9"; pla 5; "ram64x6 ram words=64 bits=6"; "m15 multiplier size=15" ]

(* analysis targets, written as CIF by set-up *)
let targets = [ ("drc", "pla-target"); ("erc", "ram-target"); ("compact", "dec-target") ]

let target_cell = function
  | "pla-target" ->
    (Rsg_pla.Gen.generate
       (random_table (Random.State.make [| 17 |]) ~inputs:12 ~outputs:10 ~terms:40))
      .Rsg_pla.Gen.cell
  | "ram-target" -> (Rsg_ram.Ram_gen.generate ~words:16 ~bits:8 ()).Rsg_ram.Ram_gen.cell
  | "dec-target" -> (Rsg_pla.Gen.generate_decoder 4).Rsg_pla.Gen.cell
  | t -> invalid_arg t

(* the op mix: blocks of 20 requests, 13 generate of hot keys, 1
   generate of a first-seen key ("fresh") and 2 each of drc, erc and
   compact, in a seeded order.  A fixed mix keeps throughput independent
   of the seed, and the fresh key in every block keeps cold generation
   a steady share of the window rather than a burst at its start. *)
let block_len = 20

let op_block st =
  shuffle st
    (Array.of_list
       (List.init 13 (fun _ -> "generate")
       @ [ "fresh"; "drc"; "drc"; "erc"; "erc"; "compact"; "compact" ]))

(* Zipf(1) over the key ranks *)
let draw_key st n =
  let w = Array.init n (fun k -> 1. /. float_of_int (k + 1)) in
  let total = Array.fold_left ( +. ) 0. w in
  let u = Random.State.float st total in
  let rec pick k acc = if k = n - 1 || acc +. w.(k) > u then k else pick (k + 1) (acc +. w.(k)) in
  pick 0 0.

type expect = {
  e_sha : (string, string) Hashtbl.t;  (** generate spec -> CIF digest *)
  e_results : (string, Json.t) Hashtbl.t;  (** op -> direct result fields *)
}

let fields_of = function Json.Obj kvs -> kvs | _ -> []

(* the cell a generate spec names, built by a direct library call *)
let direct_cell spec =
  match Rsg_serve.Jobspec.parse_line 1 spec with
  | Ok (Some job) -> job.Rsg_store.Batch.j_gen ()
  | _ -> failwith ("bad spec " ^ spec)

let sha_of_cif cif = Digest.to_hex (Digest.string cif)

(* the digest a spec's direct generation gives: the hot keys' are
   computed in set-up, a fresh key's on first use, after the window *)
let expected_sha ex spec =
  match Hashtbl.find_opt ex.e_sha spec with
  | Some sha -> sha
  | None ->
    let sha = sha_of_cif (Rsg_layout.Cif.to_string (direct_cell spec)) in
    Hashtbl.replace ex.e_sha spec sha;
    sha

(* the analysis results a direct library call gives on the target *)
let direct op path =
  let cell =
    match Rsg_serve.Jobspec.target_cell path with
    | Ok c -> c
    | Error m -> failwith m
  in
  match op with
  | "drc" ->
    let r = Rsg_drc.Drc.check_flat ~domains:1 (Flatten.protos_flat (Flatten.prototypes cell)) in
    Json.Obj
      [ ("clean", Json.Bool (Rsg_drc.Drc.clean r));
        ("violations", Json.Int (List.length r.Rsg_drc.Drc.r_violations));
        ("boxes", Json.Int r.Rsg_drc.Drc.r_boxes) ]
  | "erc" ->
    let r = Rsg_erc.Erc.check_cell ~domains:1 cell in
    Json.Obj
      [ ("clean", Json.Bool (Rsg_erc.Erc.clean r));
        ("nets", Json.Int r.Rsg_erc.Erc.r_nets);
        ("devices", Json.Int r.Rsg_erc.Erc.r_devices);
        ("rails", Json.Int r.Rsg_erc.Erc.r_rails) ]
  | _ ->
    let module H = Rsg_compact.Hcompact in
    let s = (H.hier ~domains:1 Rsg_compact.Rules.default cell).H.hr_stats in
    Json.Obj
      [ ("protos", Json.Int s.H.hs_protos);
        ("internal_constraints", Json.Int s.H.hs_internal_constraints);
        ("area_before", Json.Int s.H.hs_area_before);
        ("area_after", Json.Int s.H.hs_area_after) ]

(* untimed oracle of one response *)
let oracle ex (op, key) resp =
  if not (Client.response_ok resp) then
    Error (Printf.sprintf "%s %s: %s" op key (Json.to_string resp))
  else
    let result = Option.value ~default:Json.Null (Json.member "result" resp) in
    match op with
    | "generate" ->
      let spec = key in
      if Json.mem_string "cif_sha" result <> Some (expected_sha ex spec) then
        Error ("generate " ^ spec ^ ": cif_sha differs from direct generation")
      else if
        Option.bind (Json.member "drc" result) (Json.mem_bool "clean") <> Some true
      then Error ("generate " ^ spec ^ ": DRC not clean")
      else Ok ()
    | _ ->
      let want = Hashtbl.find ex.e_results op in
      if
        List.for_all
          (fun (k, v) -> Json.member k result = Some v)
          (fields_of want)
      then Ok ()
      else Error (op ^ ": verdict differs from the direct library call")

let run opts =
  let dir = Filename.concat opts.work_dir (Printf.sprintf "serve-s%d" opts.seed) in
  rm_rf dir;
  mkdir_p dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let specs = gen_specs opts in
  let nkeys = List.length specs in
  let spec_arr = Array.of_list specs in
  (* set-up: the oracle digests of every hot key, the analysis targets
     and their direct verdicts, then the daemon and a warm-up *)
  let ex = { e_sha = Hashtbl.create 64; e_results = Hashtbl.create 4 } in
  let working_set =
    List.fold_left
      (fun acc spec ->
        let cif = Rsg_layout.Cif.to_string (direct_cell spec) in
        Hashtbl.replace ex.e_sha spec (sha_of_cif cif);
        acc + String.length cif)
      0 specs
  in
  let target_path t = Filename.concat dir (t ^ ".cif") in
  List.iter
    (fun (op, t) ->
      Rsg_layout.Cif.write_file (target_path t) (target_cell t);
      Hashtbl.replace ex.e_results op (direct op (target_path t)))
    targets;
  let socket = Filename.concat dir "rsg.sock" in
  let cfg =
    { (Serve.default_config ~socket_path:socket) with
      Serve.workers = 1; queue_depth = 8; job_domains = opts.domains;
      mem_budget = working_set * 2 / 5; store_dir = Some (Filename.concat dir "store") }
  in
  let ready = Atomic.make false in
  let server =
    Thread.create (fun () -> Serve.run ~on_ready:(fun () -> Atomic.set ready true) cfg) ()
  in
  let deadline = now () +. 30. in
  while not (Atomic.get ready) do
    if now () > deadline then failwith "the daemon did not start listening";
    Thread.delay 0.002
  done;
  let connect () =
    match Client.connect ~attempts:20 socket with
    | Ok c -> c
    | Error m -> failwith ("connect: " ^ m)
  in
  let clients = [| connect (); connect () |] in
  let request_json id (op, key) =
    let base = [ ("id", Json.Int id); ("op", Json.String op) ] in
    Json.Obj
      (match op with
      | "generate" -> base @ [ ("spec", Json.String key); ("drc", Json.Bool true) ]
      | _ -> base @ [ ("spec", Json.String (target_path key)) ])
  in
  let send c id rq =
    match Client.request c (request_json id rq) with
    | Ok r -> r
    | Error m -> failwith ("request: " ^ m)
  in
  (* warm-up: each analysis op once, and every hot key coldest first, so
     the window's hot generates hit memory or the store from its start
     and cold generation comes from the fresh keys alone *)
  List.iter (fun (op, t) -> ignore (send clients.(0) 0 (op, t))) targets;
  for k = nkeys - 1 downto 0 do
    ignore (send clients.(0) 0 ("generate", spec_arr.(k)))
  done;
  let setup_s = since_start () in
  let stop () =
    ignore
      (Client.request clients.(0)
         (Json.Obj [ ("id", Json.Int 0); ("op", Json.String "shutdown") ]));
    Array.iter Client.close clients;
    Thread.join server
  in
  if opts.mode = Setup then begin
    stop ();
    { setup_s; run = no_run; self_checks = []; extra = []; layers = [];
      deterministic = []; shares = [] }
  end
  else begin
    let traced = opts.mode = Traced in
    let counters0 = Obs.counters () and spans0 = obs_span_totals () in
    let delta name =
      obs_counter name
      -. float_of_int (Option.value ~default:0 (List.assoc_opt name counters0))
    in
    (* each client's request sequence is its own seeded stream *)
    let client_loop c =
      let st = rng opts (100 + c) and fresh = rng opts (200 + c) in
      let out = ref [] in
      let t_end = now () +. opts.seconds in
      let k = ref 0 and block = ref [||] in
      let more () =
        match opts.jobs with Some n -> !k < n | None -> now () < t_end
      in
      while more () do
        if !k mod block_len = 0 then block := op_block st;
        let op, key =
          match !block.(!k mod block_len) with
          | "generate" -> ("generate", spec_arr.(draw_key st nkeys))
          | "fresh" ->
            ("generate", pla_spec fresh (Printf.sprintf "fresh%d_%d" c (!k / block_len)))
          | op -> (op, List.assoc op targets)
        in
        let t0 = now () in
        let resp = try Ok (send clients.(c) (1 + !k) (op, key)) with e -> Error e in
        out := ((op, key), now () -. t0, resp) :: !out;
        incr k
      done;
      List.rev !out
    in
    (* the host speed is sampled while the daemon is idle, just before
       and just after the window: a sample taken while the worker
       serves a request would measure the worker's own cache traffic *)
    let host_samples () =
      for _ = 1 to 10 do
        sample_host ()
      done
    in
    host_samples ();
    let t0 = now () in
    let results = Array.make 2 [] in
    let th = Thread.create (fun () -> results.(1) <- client_loop 1) () in
    results.(0) <- client_loop 0;
    Thread.join th;
    let window = now () -. t0 in
    host_samples ();
    let mem_hit = delta "serve.mem_hit" and mem_miss = delta "serve.mem_miss" in
    let store_hit = delta "store.hit" and store_miss = delta "store.miss" in
    let coalesced = delta "serve.coalesced" and queue_full = delta "serve.queue_full" in
    stop ();
    (* the worker domain's library spans ([Serve.run] records them):
       busy seconds per span over the window's wall time, i.e. the
       share of the one worker's capacity *)
    let span_secs =
      List.filter_map
        (fun (name, total) ->
          let d = total -. Option.value ~default:0. (List.assoc_opt name spans0) in
          if d > 0. then Some (name, d) else None)
        (obs_span_totals ())
    in
    let shares = List.map (fun (name, d) -> (name, d /. window)) span_secs in
    let all = results.(0) @ results.(1) in
    let failures = ref [] in
    List.iteri
      (fun i (rq, _, resp) ->
        match resp with
        | Error e -> failures := (i, Printexc.to_string e) :: !failures
        | Ok r -> (
          match oracle ex rq r with Ok () -> () | Error m -> failures := (i, m) :: !failures))
      all;
    let run =
      { lats = List.map (fun (_, l, _) -> l) all;
        (* generate requests by where the daemon found the layout *)
        tags =
          List.map
            (fun ((op, key), _, resp) ->
              match (op, resp) with
              | "generate", Ok r ->
                let result = Option.value ~default:Json.Null (Json.member "result" r) in
                "generate " ^ Option.value ~default:"?" (Json.mem_string "source" result)
              | _ -> op ^ " " ^ List.hd (String.split_on_char ' ' (Filename.basename key)))
            all;
        window;
        failures = List.rev !failures }
    in
    let replayed = ref 0 and levels = ref 0 in
    let area_in = ref 0 and area_out = ref 0 in
    List.iter
      (fun ((op, _), _, resp) ->
        match resp with
        | Ok r -> (
          let result = Option.value ~default:Json.Null (Json.member "result" r) in
          let geti k = Option.value ~default:0 (Json.mem_int k result) in
          match op with
          | "erc" ->
            replayed := !replayed + geti "cached";
            levels := !levels + geti "levels"
          | "compact" ->
            replayed := !replayed + geti "reused";
            levels := !levels + geti "protos";
            area_in := !area_in + geti "area_before";
            area_out := !area_out + geti "area_after"
          | _ -> ())
        | Error _ -> ())
      all;
    let op_p50 op =
      median (List.filter_map (fun ((o, _), l, _) -> if o = op then Some l else None) all)
    in
    let ops = [ "generate"; "drc"; "erc"; "compact" ] in
    let layers =
      if traced then
        List.map (fun op -> (Printf.sprintf "serve.%s_p50_s" op, op_p50 op)) ops
        @ [ ("serve.mem_hit_frac", mem_hit /. Float.max 1. (mem_hit +. mem_miss));
            ( "serve.analysis_replayed_frac",
              float_of_int !replayed /. float_of_int (max 1 !levels) );
            ("serve.coalesced", coalesced);
            ("serve.queue_full", queue_full);
            ("store.hit_frac", store_hit /. Float.max 1. (store_hit +. store_miss)) ]
        (* the worker's library spans, per request: flat DRC of every
           generate and drc op, the erc and compact ops *)
        @ List.map
            (fun (metric, span) ->
              ( metric,
                Option.value ~default:0. (List.assoc_opt span span_secs)
                /. float_of_int (List.length all) ))
            [ ("drc.s", "drc.check"); ("erc.s", "erc.hier"); ("hcompact.s", "hcompact");
              ("hcompact.condense_s", "hcompact.condense");
              ("hcompact.stitch_s", "hcompact.stitch") ]
      else []
    in
    (* the daemon's own counts depend on how the two clients interleave,
       so the determinism check replays the request list, untimed,
       through direct library calls at 1 domain and compares their work
       counts and minor words *)
    let deterministic =
      if traced then begin
        tracing := true;
        List.iter
          (fun ((op, key), _, _) ->
            match op with
            | "generate" ->
              let cif, flat =
                layer "replay.generate" (fun () ->
                    let cell = direct_cell key in
                    ( Rsg_layout.Cif.to_string cell,
                      Flatten.protos_flat (Flatten.prototypes cell) ))
              in
              count "replay.cif_bytes" (float_of_int (String.length cif));
              let r =
                layer "replay.generate_drc" (fun () -> Rsg_drc.Drc.check_flat ~domains:1 flat)
              in
              count "replay.drc_boxes" (float_of_int r.Rsg_drc.Drc.r_boxes)
            | op ->
              let result = layer ("replay." ^ op) (fun () -> direct op (target_path key)) in
              List.iter
                (fun (k, v) ->
                  match v with
                  | Json.Int n -> count (Printf.sprintf "replay.%s.%s" op k) (float_of_int n)
                  | _ -> ())
                (fields_of result))
          all;
        tracing := false;
        List.map
          (fun op ->
            ( "requests." ^ op,
              float_of_int (List.length (List.filter (fun ((o, _), _, _) -> o = op) all)) ))
          ops
        @ List.map
            (fun op -> ("replay." ^ op ^ ".words", words ("replay." ^ op)))
            (ops @ [ "generate_drc" ])
        @ List.map (fun n -> (n, worked n))
            (List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) work []))
      end
      else []
    in
    let self_checks =
      let spec = spec_arr.(0) in
      let sha = Hashtbl.find ex.e_sha spec in
      let flipped =
        String.mapi (fun i ch -> if i > 0 then ch else if ch = '0' then '1' else '0') sha
      in
      let gen_resp sha =
        Json.Obj
          [ ("ok", Json.Bool true);
            ( "result",
              Json.Obj
                [ ("cif_sha", Json.String sha);
                  ("drc", Json.Obj [ ("clean", Json.Bool true) ]) ] ) ]
      in
      let drc_want = Hashtbl.find ex.e_results "drc" in
      let wrong =
        Json.Obj
          (List.map
             (fun (k, v) ->
               match v with
               | Json.Int n -> (k, Json.Int (n + 1))
               | Json.Bool b -> (k, Json.Bool (not b))
               | v -> (k, v))
             (fields_of drc_want))
      in
      let drc_resp r = Json.Obj [ ("ok", Json.Bool true); ("result", r) ] in
      [ ("serve_oracle_accepts_good",
         Result.is_ok (oracle ex ("generate", spec) (gen_resp sha))
         && Result.is_ok (oracle ex ("drc", "pla-target") (drc_resp drc_want)));
        ( "serve_flipped_cif_sha",
          Result.is_error (oracle ex ("generate", spec) (gen_resp flipped)) );
        ( "serve_wrong_drc_verdict",
          Result.is_error (oracle ex ("drc", "pla-target") (drc_resp wrong)) ) ]
    in
    let area_ratio = float_of_int !area_out /. float_of_int (max 1 !area_in) in
    { setup_s; run; self_checks; extra = [ ("area_ratio", area_ratio) ]; layers;
      deterministic; shares = (if traced then shares else []) }
  end
