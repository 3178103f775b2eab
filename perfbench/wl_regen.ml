(* regen-edit: incremental regeneration through the store.  The chip is
   E27's: ten multiplier blocks of 8..26 bits side by side.  An edit
   toggles a duplicate box in one seeded leaf celltype of one block: a
   leaf without one gets a copy of one of its own boxes, a leaf with
   one loses it.  That changes content (and so the leaf's and its
   ancestors' subtree digests) but not the union of geometry, so the
   design stays DRC-clean, and at most one extra box per leaf ever
   exists, so the design does not grow as jobs run.

   One job is a round of ten edits, one in each block in seeded order.
   An edit's cost grows with its block (75 to 170 ms); timing whole
   rounds gives jobs of one size whose work does not depend on which
   blocks the seed drew.  After each edit the job regenerates the way
   an incremental CLI run does:

     Store.find (miss) -> Store.harvest (read + decode the previous
     entry's prototype table) -> Flatten.prototypes + seed_proto (clean
     subtrees adopt the previous run's arrays) -> Drc.check_protos
     ~cached (clean levels replay) -> Flatten.protos_flat ->
     Codec.proto_table -> Store.save (encode + durable write).

   ERC is left out: it judges only the root, so it would re-check the
   whole chip on every job and hide everything else.  The store lives
   in the work directory inside the checkout. *)

open Common
module Flatten = Rsg_layout.Flatten
module Cell = Rsg_layout.Cell
module Drc = Rsg_drc.Drc
module Store = Rsg_store.Store
module Codec = Rsg_store.Codec

let sizes = [ 8; 10; 12; 14; 16; 18; 20; 22; 24; 26 ]

let deck = Rsg_drc.Deck.default

let deck_text = Rsg_drc.Deck.to_string deck

let deck_digest = Rsg_drc.Deck.digest deck

let stem = "perfbench:regen-edit-chip"

(* the chip, and per block the leaf celltypes an edit may touch, each
   with its objects as built *)
let build_chip () =
  let chip = Cell.create "chip" in
  let x = ref 0 in
  let leaves =
    List.map
      (fun n ->
        let m = (Rsg_mult.Layout_gen.generate ~xsize:n ~ysize:n ()).Rsg_mult.Layout_gen.whole in
        ignore (Cell.add_instance chip ~at:(Rsg_geom.Vec.make !x 0) m);
        let pm = Flatten.prototypes m in
        let bb = Option.get (Flatten.cell_bbox pm (Flatten.protos_root pm)) in
        x := !x + (bb.Rsg_geom.Box.xmax - bb.Rsg_geom.Box.xmin) + 2000;
        Flatten.protos_order pm
        |> List.filter (fun c -> Cell.instances c = [] && Cell.boxes c <> [])
        |> List.map (fun c -> (c, c.Cell.objects))
        |> Array.of_list)
      sizes
  in
  (chip, Array.of_list leaves)

(* toggle one seeded leaf's duplicate box in [block] *)
let edit st block =
  let leaf, built = block.(Random.State.int st (Array.length block)) in
  if leaf.Cell.objects != built then leaf.Cell.objects <- built
  else begin
    let boxes = Cell.boxes leaf in
    let l, b = List.nth boxes (Random.State.int st (List.length boxes)) in
    Cell.add_box leaf l b
  end

let cached_level (l : Drc.level) =
  { Drc.cl_violations = l.Drc.l_violations; cl_contexts = l.Drc.l_contexts;
    cl_distinct = l.Drc.l_distinct; cl_boxes = l.Drc.l_boxes }

(* the regeneration of one design state; [prev] is the previous run's
   flattening cache, whose arrays seed the clean subtrees *)
let regenerate ~domains store ~key ~prev chip =
  (match layer "store.find" (fun () -> Store.find store key) with
  | Store.Miss -> ()
  | Store.Hit _ | Store.Corrupt _ -> failwith "edited design unexpectedly in the store");
  let old =
    match layer "store.harvest" (fun () -> Store.harvest store ~stem) with
    | Some (_, table) ->
      let h = Hashtbl.create (Array.length table) in
      Array.iter
        (fun (p : Codec.proto) -> Hashtbl.replace h (Digest.to_hex p.Codec.p_hash) p)
        table;
      h
    | None -> Hashtbl.create 1
  in
  let protos =
    layer "flatten" (fun () ->
        let protos = Flatten.prototypes chip in
        (match prev with
        | Some p0 ->
          List.iter
            (fun (c, _) ->
              let f = Flatten.proto_flat p0 c in
              Flatten.seed_proto protos ~hash:(Flatten.subtree_digest p0 c)
                ~boxes:f.Flatten.flat_boxes ~labels:f.Flatten.flat_labels)
            (Flatten.subtree_hashes p0)
        | None -> ());
        protos)
  in
  count "flatten.distinct" (float_of_int (Flatten.distinct_cells protos));
  let cached hex =
    Option.bind (Hashtbl.find_opt old hex) (fun (p : Codec.proto) ->
        List.assoc_opt deck_digest p.Codec.p_reports)
  in
  let hier = layer "drc" (fun () -> Drc.check_protos ~domains ~cached protos) in
  let flat = layer "flatten" (fun () -> Flatten.protos_flat protos) in
  let by_hex = Hashtbl.create 64 in
  List.iter (fun (l : Drc.level) -> Hashtbl.replace by_hex l.Drc.l_hash (cached_level l))
    hier.Drc.h_levels;
  let table =
    layer "codec.table" (fun () ->
        Codec.proto_table protos
          ~reused:(fun hex -> Hashtbl.mem old hex)
          ~reports:(fun hex ->
            match Hashtbl.find_opt by_hex hex with
            | Some cl -> [ (deck_digest, cl) ]
            | None -> []))
  in
  count "flatten.seeded"
    (float_of_int
       (Array.fold_left (fun a (p : Codec.proto) -> if p.Codec.p_reused then a + 1 else a) 0 table));
  layer "store.save" (fun () ->
      Store.save store key ~stem ~label:"regen-edit chip" ~flat ~protos:table chip);
  (protos, hier, flat, table)

let verdicts (h : Drc.hier_report) =
  List.map (fun (l : Drc.level) -> (l.Drc.l_hash, l.Drc.l_violations)) h.Drc.h_levels

(* untimed oracle: a cold, unseeded, uncached flatten + check of the
   same design state agrees with the incremental one *)
let oracle chip (hier, flat) =
  let protos = Flatten.prototypes chip in
  let cold = Drc.check_protos ~domains:1 protos in
  if not (Drc.hier_clean cold) then Error "cold re-check: design not DRC-clean"
  else if verdicts cold <> verdicts hier then
    Error "incremental DRC levels differ from a cold re-check"
  else if (Flatten.protos_flat protos).Flatten.flat_boxes <> flat.Flatten.flat_boxes then
    Error "seeded flat differs from a cold flatten"
  else Ok ()

(* at least 21 jobs in a timed pass, so job_tail_s (the 11th-largest
   latency) is never below the median *)
let min_jobs = 21

let key_of opts i =
  Store.key ~deck:deck_text ~design:"perfbench regen-edit chip"
    ~params:(Printf.sprintf "seed=%d edit=%d" opts.seed i) ()

let run opts =
  let domains = opts.domains in
  let dir = Filename.concat opts.work_dir (Printf.sprintf "regen-s%d" opts.seed) in
  rm_rf dir;
  mkdir_p dir;
  let store = Store.open_ dir in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  (* set-up: build the chip and fill the store with its first state,
     then one untimed warm-up round *)
  let chip, leaves = build_chip () in
  let edits = rng opts 1 in
  let prev = ref None and stale = ref [] and newest = ref None in
  let step key =
    let r = regenerate ~domains store ~key ~prev:!prev chip in
    let protos, _, _, _ = r in
    prev := Some protos;
    Option.iter (fun k -> stale := k :: !stale) !newest;
    newest := Some key;
    r
  in
  (* keep only the newest entry, so the store does not grow; done
     outside the jobs *)
  let drop_stale () =
    List.iter (fun k -> try Sys.remove (Store.path_of store k) with Sys_error _ -> ())
      !stale;
    stale := []
  in
  (* a round: one edit and regeneration per block, blocks in seeded
     order; [k] numbers the round's store keys *)
  let round k =
    let last = ref None in
    Array.iter
      (fun b ->
        edit edits leaves.(b);
        last := Some (step (key_of opts ((k * Array.length leaves) + b))))
      (shuffle edits (Array.init (Array.length leaves) Fun.id));
    Option.get !last
  in
  ignore (step (key_of opts (-1)));
  ignore (round (-2));
  drop_stale ();
  let setup_s = since_start () in
  if opts.mode = Setup then
    { setup_s; run = no_run; self_checks = []; extra = []; layers = [];
      deterministic = []; shares = [] }
  else begin
    let traced = opts.mode = Traced in
    if traced then begin
      Obs.enable ();
      tracing := true
    end;
    let sample = rng opts 2 in
    let run =
      drive opts ~min_jobs (fun i ->
          tag "round";
          let _, hier, flat, table = round i in
          let checked = Random.State.int sample 4 = 0 in
          fun () ->
            drop_stale ();
            (* the codec's share of save and harvest, measured outside
               the job on the entry it wrote, which the next job
               harvests *)
            if traced then begin
              let bytes =
                layer "codec.encode" (fun () ->
                    Codec.encode ~flat ~protos:table ~label:"regen-edit chip" chip)
              in
              count "codec.bytes" (float_of_int (String.length bytes));
              ignore (layer "codec.decode" (fun () -> Codec.decode_protos bytes))
            end;
            if checked then oracle chip (hier, flat) else Ok ())
    in
    tracing := false;
    Obs.disable ();
    let layers, deterministic, shares =
      if traced then begin
        let n = float_of_int (List.length run.lats) in
        let per x = x /. n in
        let finds = obs_counter "store.hit" +. obs_counter "store.miss" in
        ( [ ("flatten.s", per (secs "flatten"));
            ("flatten.mwords", per (words "flatten" /. 1e6));
            ("flatten.distinct", per (worked "flatten.distinct"));
            ("flatten.seeded", per (worked "flatten.seeded"));
            ("drc.s", per (obs_span "drc.hier"));
            ("drc.mwords", per (words "drc" /. 1e6));
            ("drc.levels", per (obs_counter "drc.hier.levels"));
            ( "drc.replayed_frac",
              obs_counter "drc.hier.cached" /. Float.max 1. (obs_counter "drc.hier.levels") );
            ("codec.encode_s", per (secs "codec.encode"));
            ("codec.decode_s", per (secs "codec.decode"));
            ("codec.kb", per (worked "codec.bytes" /. 1024.));
            ("store.harvest_s", per (secs "store.harvest"));
            ("store.save_s", per (secs "store.save"));
            ("store.find_s", per (secs "store.find"));
            ("store.hit_frac", obs_counter "store.hit" /. Float.max 1. finds) ],
          [ ("flatten.words", words "flatten");
            ("flatten.distinct", worked "flatten.distinct");
            ("flatten.seeded", worked "flatten.seeded");
            ("drc.words", words "drc");
            ("drc.levels", obs_counter "drc.hier.levels");
            ("drc.cached", obs_counter "drc.hier.cached");
            ("drc.boxes", obs_counter "drc.hier.boxes");
            ("codec.table.words", words "codec.table");
            ("codec.bytes", worked "codec.bytes");
            ("codec.encode.words", words "codec.encode");
            ("codec.decode.words", words "codec.decode");
            (* store.harvest and store.save words are left out: the
               runtime's file-write path allocates a few words more when
               the kernel takes a write in parts *)
            ("store.harvest", obs_counter "store.harvest");
            ("store.save", obs_counter "store.save") ],
          List.map
            (fun l -> (l, secs l /. run.window))
            [ "store.find"; "store.harvest"; "flatten"; "drc"; "codec.table"; "store.save" ] )
      end
      else ([], [], [])
    in
    let self_checks =
      let _, hier, flat, _ = step (key_of opts (-100)) in
      let good = Result.is_ok (oracle chip (hier, flat)) in
      (* defects on the clean design that only the comparisons can see:
         a violation added to the root level's verdict, and a flat with
         its first box dropped *)
      let bogus =
        { Drc.v_rule = "perfbench.bogus"; v_layers = [ Rsg_geom.Layer.Metal ];
          v_boxes = [ Rsg_geom.Box.make ~xmin:0 ~ymin:0 ~xmax:1 ~ymax:1 ]; v_required = 1;
          v_actual = 0 }
      in
      let altered =
        match List.rev hier.Drc.h_levels with
        | root :: rest ->
          { hier with
            Drc.h_levels = List.rev ({ root with Drc.l_violations = [ (bogus, 1) ] } :: rest) }
        | [] -> hier
      in
      let boxes = flat.Flatten.flat_boxes in
      let dropped =
        { flat with Flatten.flat_boxes = Array.sub boxes 1 (Array.length boxes - 1) }
      in
      let rejects_altered = Result.is_error (oracle chip (altered, flat)) in
      let rejects_dropped = Result.is_error (oracle chip (hier, dropped)) in
      (* and one the cold re-check must see: a metal sliver below the
         width rule added after the incremental check ran *)
      Cell.add_box chip Rsg_geom.Layer.Metal
        (Rsg_geom.Box.make ~xmin:(-10000) ~ymin:0 ~xmax:(-9999) ~ymax:1);
      [ ("regen_oracle_accepts_clean", good);
        ("regen_altered_level_verdict", rejects_altered);
        ("regen_dropped_flat_box", rejects_dropped);
        ("regen_metal_sliver", Result.is_error (oracle chip (hier, flat))) ]
    in
    { setup_s; run; self_checks; extra = []; layers; deterministic; shares }
  end
