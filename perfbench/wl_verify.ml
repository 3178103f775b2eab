(* verify-cold: the cold path every CLI run pays.  One job is a round
   of seven structures, each generated with no store and verified:
   Flatten.prototypes -> Drc.check_protos -> Erc.check_protos ->
   Cif.to_string.

   A round has a fixed composition, shuffled by the seed: multipliers
   of 8, 16 and 24 bits through the Appendix-B design file (parse +
   interpret), a seeded random PLA, a decoder and two RAMs.  The
   structures take 25 to 400 ms each; timing whole rounds gives jobs of
   one size, so the median is not a point between two job kinds, and a
   fixed composition keeps throughput and the latency quantiles
   independent of the seed; only the order and the PLA personality
   vary. *)

open Common
module Flatten = Rsg_layout.Flatten
module Cif = Rsg_layout.Cif
module Drc = Rsg_drc.Drc
module Erc = Rsg_erc.Erc

type kind =
  | Mult of int
  | Pla of Rsg_pla.Truth_table.t
  | Decoder of int
  | Ram of int * int

let kind_name = function
  | Mult n -> Printf.sprintf "mult%d" n
  | Pla _ -> "pla"
  | Decoder n -> Printf.sprintf "decoder%d" n
  | Ram (w, b) -> Printf.sprintf "ram%dx%d" w b

let pla_shape = (10, 8, 28)

(* at least 21 jobs in a timed pass, so job_tail_s (the 11th-largest
   latency) is never below the median *)
let min_jobs = 21

let round_of st =
  let i, o, t = pla_shape in
  let pla () = Pla (random_table st ~inputs:i ~outputs:o ~terms:t) in
  shuffle st [| Mult 8; Mult 16; Mult 24; pla (); Ram (16, 16); Decoder 6; Ram (32, 8) |]

(* the design-file path of Design_file.generate, split at the parse /
   interpret boundary so the ledger can see both *)
let design_file_mult n =
  let sample = fst (Rsg_mult.Sample_lib.build ()) in
  let params, prog =
    layer "lang.parse" (fun () ->
        ( Rsg_lang.Param.parse (Rsg_mult.Sample_lib.param_file ~xsize:n ~ysize:n),
          Rsg_lang.Parser.parse_program Rsg_mult.Design_file.text ))
  in
  layer "lang.interp" (fun () ->
      let st = Rsg_lang.Interp.of_sample sample in
      Rsg_lang.Interp.load_params st params;
      ignore (Rsg_lang.Interp.run_program st prog);
      match Rsg_lang.Interp.last_created st with
      | Some c -> c
      | None -> failwith "design file created no cell")

(* the structure, and its generator's own record where one exists:
   the PLA and decoder oracles read the personality back from it *)
let generate = function
  | Mult n -> (design_file_mult n, None)
  | Pla tt ->
    let g = Rsg_pla.Gen.generate tt in
    (g.Rsg_pla.Gen.cell, Some g)
  | Decoder n ->
    let g = Rsg_pla.Gen.generate_decoder n in
    (g.Rsg_pla.Gen.cell, Some g)
  | Ram (words, bits) ->
    ((Rsg_ram.Ram_gen.generate ~words ~bits ()).Rsg_ram.Ram_gen.cell, None)

type out = {
  o_cell : Rsg_layout.Cell.t;
  o_drc_clean : bool;
  o_erc_clean : bool;
  o_cif : string;
}

let verify domains cell =
  let protos = layer "flatten" (fun () -> Flatten.prototypes cell) in
  count "flatten.distinct" (float_of_int (Flatten.distinct_cells protos));
  let hier = layer "drc" (fun () -> Drc.check_protos ~domains protos) in
  let erc = layer "erc" (fun () -> Erc.check_protos ~domains protos) in
  count "erc.devices" (float_of_int erc.Erc.r_devices);
  let cif = layer "cif" (fun () -> Cif.to_string cell) in
  count "cif.bytes" (float_of_int (String.length cif));
  { o_cell = cell; o_drc_clean = Drc.hier_clean hier; o_erc_clean = Erc.clean erc;
    o_cif = cif }

(* ---- oracles (untimed) ---------------------------------------------- *)

(* the E17 oracle: the interpreted design file and the native
   generator give the same geometry (cell names differ) *)
let oracle_same_geometry ~native cell =
  if Cif.roundtrip_equal native cell then Ok ()
  else Error "design-file layout differs from Layout_gen's"

(* a supply short: vdd and gnd labels on one conductor box, which
   the ERC must report as an error (E300) *)
let short_rails cell =
  let flat = Flatten.flatten cell in
  let conductor (l, _) = l = Rsg_geom.Layer.Metal in
  match List.find_opt conductor (Array.to_list flat.Flatten.flat_boxes) with
  | None -> None
  | Some (_, b) ->
    let top = Rsg_layout.Cell.create "shorted" in
    ignore (Rsg_layout.Cell.add_instance top ~at:(Rsg_geom.Vec.make 0 0) cell);
    let c = Rsg_geom.Vec.make ((b.Rsg_geom.Box.xmin + b.Rsg_geom.Box.xmax) / 2)
        ((b.Rsg_geom.Box.ymin + b.Rsg_geom.Box.ymax) / 2) in
    Rsg_layout.Cell.add_label top "vdd" c;
    Rsg_layout.Cell.add_label top "gnd" c;
    Some top

let oracle kind ~native out gen =
  let ( >>= ) r f = match r with Ok () -> f () | e -> e in
  (if out.o_drc_clean then Ok () else Error (kind_name kind ^ ": DRC not clean"))
  >>= fun () ->
  (if out.o_erc_clean then Ok () else Error (kind_name kind ^ ": ERC errors"))
  >>= fun () ->
  match (kind, gen) with
  | Mult n, _ -> oracle_same_geometry ~native:(List.assoc n native) out.o_cell
  | (Pla _ | Decoder _), Some g ->
    (* read the personality back from the layout's crosspoints *)
    if Rsg_pla.Gen.verify g then Ok ()
    else Error (kind_name kind ^ ": personality does not read back")
  | _ -> Ok ()

let find_sub s sub =
  let n = String.length sub in
  let rec go i =
    if i + n > String.length s then raise Not_found
    else if String.sub s i n = sub then i + 1
    else go (i + 1)
  in
  go 0

let run opts =
  let domains = opts.domains in
  let st = rng opts 1 in
  (* set-up: the native generator's multipliers (the E17 oracle), and
     one untimed warm-up job of every kind *)
  let native =
    List.map
      (fun n ->
        (n, (Rsg_mult.Layout_gen.generate ~xsize:n ~ysize:n ()).Rsg_mult.Layout_gen.whole))
      [ 8; 16; 24 ]
  in
  Array.iter (fun k -> ignore (verify domains (fst (generate k)))) (round_of (rng opts 2));
  let setup_s = since_start () in
  if opts.mode = Setup then
    { setup_s; run = no_run; self_checks = [];
      extra = []; layers = []; deterministic = []; shares = [] }
  else begin
    if opts.mode = Traced then begin
      Obs.enable ();
      tracing := true
    end;
    let run =
      drive opts ~min_jobs (fun _ ->
          tag "round";
          let outs =
            Array.map
              (fun k ->
                let cell, gen = generate k in
                (k, verify domains cell, gen))
              (round_of st)
          in
          fun () ->
            Array.fold_left
              (fun acc (k, out, gen) ->
                match acc with Ok () -> oracle k ~native out gen | e -> e)
              (Ok ()) outs)
    in
    tracing := false;
    Obs.disable ();
    let layers, deterministic, shares =
      if opts.mode = Traced then begin
        let n = float_of_int (List.length run.lats) in
        let per x = x /. n in
        let lang_s = secs "lang.parse" +. secs "lang.interp" in
        let layers =
          [ ("lang.parse_s", per (secs "lang.parse"));
            ("lang.interp_s", per (secs "lang.interp"));
            ("lang.mwords", per ((words "lang.parse" +. words "lang.interp") /. 1e6));
            ("flatten.s", per (secs "flatten"));
            ("flatten.mwords", per (words "flatten" /. 1e6));
            ("flatten.distinct", per (worked "flatten.distinct"));
            ("cif.write_s", per (secs "cif"));
            ("cif.kb", per (worked "cif.bytes" /. 1024.));
            ("drc.s", per (obs_span "drc.hier"));
            ("drc.mwords", per (words "drc" /. 1e6));
            ("drc.levels", per (obs_counter "drc.hier.levels"));
            ( "drc.replayed_frac",
              obs_counter "drc.hier.cached" /. Float.max 1. (obs_counter "drc.hier.levels") );
            ("erc.s", per (obs_span "erc.hier"));
            ("erc.mwords", per (words "erc" /. 1e6));
            ("erc.nets", per (obs_counter "erc.hier.nets"));
            ("erc.devices", per (worked "erc.devices")) ]
        in
        let det =
          [ ("lang.words", words "lang.parse" +. words "lang.interp");
            ("flatten.words", words "flatten");
            ("flatten.distinct", worked "flatten.distinct");
            ("drc.words", words "drc");
            ("drc.levels", obs_counter "drc.hier.levels");
            ("drc.boxes", obs_counter "drc.hier.boxes");
            ("erc.words", words "erc");
            ("erc.nets", obs_counter "erc.hier.nets");
            ("erc.devices", worked "erc.devices");
            ("cif.words", words "cif");
            ("cif.bytes", worked "cif.bytes") ]
        in
        let total = run.window in
        let shares =
          [ ("lang", lang_s /. total); ("flatten", secs "flatten" /. total);
            ("drc", secs "drc" /. total); ("erc", secs "erc" /. total);
            ("cif", secs "cif" /. total) ]
        in
        (layers, det, shares)
      end
      else ([], [], [])
    in
    (* one-shot: every oracle must reject a seeded defect *)
    let self_checks =
      (* the E17 oracle against the multiplier read back from its CIF
         with one box dimension changed by two units (kept on grid) *)
      let native8 = List.assoc 8 native in
      let flipped =
        let cif = Cif.to_string native8 in
        let b = Bytes.of_string cif in
        let k = String.index_from cif (find_sub cif "\nB ") ' ' + 1 in
        let d = Char.code (Bytes.get b k) - Char.code '0' in
        Bytes.set b k (Char.chr (Char.code '0' + ((d + 2) mod 10)));
        match (Cif.of_string (Bytes.to_string b)).Cif.top with
        | Some top -> top
        | None -> failwith "flipped CIF has no top cell"
      in
      let cif_rejects =
        Result.is_ok (oracle_same_geometry ~native:native8
                        (Option.get (Cif.of_string (Cif.to_string native8)).Cif.top))
        && Result.is_error (oracle_same_geometry ~native:native8 flipped)
      in
      let i, o, t = pla_shape in
      let tt = random_table (rng opts 4) ~inputs:i ~outputs:o ~terms:t in
      let g = Rsg_pla.Gen.generate tt in
      let other = random_table (rng opts 5) ~inputs:i ~outputs:o ~terms:t in
      let erc_rejects =
        match short_rails g.Rsg_pla.Gen.cell with
        | None -> false
        | Some c -> not (Erc.clean (Erc.check_cell ~domains:1 c))
      in
      [ ("cif_flipped_byte", cif_rejects);
        ("drc_narrowed_box", drc_rejects_defect g.Rsg_pla.Gen.cell);
        ("erc_shorted_rails", erc_rejects);
        ( "pla_wrong_personality",
          not
            (Rsg_pla.Truth_table.equal tt other
            || Rsg_pla.Gen.verify { g with Rsg_pla.Gen.table = other }) ) ]
    in
    { setup_s; run; self_checks; extra = []; layers; deterministic; shares }
  end
