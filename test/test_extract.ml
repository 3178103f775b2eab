(* Tests for the EXCL-style extractor (reference [23]) and lambda
   scaling: nets, devices, terminals, and the generation->extraction
   loop on generated structures. *)

open Rsg_geom
open Rsg_layout
open Rsg_extract.Extract

let box x0 y0 x1 y1 = Box.make ~xmin:x0 ~ymin:y0 ~xmax:x1 ~ymax:y1

let item layer b = { Rsg_compact.Scanline.layer; box = b }

(* ------------------------------------------------------------------ *)
(* Nets and terminals                                                 *)

let test_nets_basic () =
  let items =
    [| item Layer.Metal (box 0 0 10 3);        (* net A *)
       item Layer.Metal (box 8 0 12 10);       (* touches -> net A *)
       item Layer.Metal (box 20 0 25 3);       (* net B *)
       item Layer.Poly (box 0 20 10 23) |]     (* net C (own layer) *)
  in
  let nl =
    of_items items
      [ ("a1", Vec.make 1 1); ("a2", Vec.make 11 8); ("b", Vec.make 22 1);
        ("c", Vec.make 5 21); ("nowhere", Vec.make 100 100) ]
  in
  Alcotest.(check int) "three nets" 3 nl.n_nets;
  Alcotest.(check bool) "a1-a2 connected" true (connected nl "a1" "a2");
  Alcotest.(check bool) "a1-b separate" false (connected nl "a1" "b");
  Alcotest.(check bool) "a1-c separate" false (connected nl "a1" "c");
  Alcotest.(check (option int)) "label off geometry" None
    (net_of_terminal nl "nowhere")

let test_contact_joins_layers () =
  (* metal - contact - poly is one net *)
  let items =
    [| item Layer.Metal (box 0 0 10 4);
       item Layer.Contact (box 2 0 6 10);
       item Layer.Poly (box 0 6 10 10) |]
  in
  let nl = of_items items [ ("m", Vec.make 9 2); ("p", Vec.make 9 9) ] in
  Alcotest.(check int) "one net" 1 nl.n_nets;
  Alcotest.(check bool) "metal-poly via contact" true (connected nl "m" "p")

let test_poly_diff_do_not_join () =
  let items =
    [| item Layer.Poly (box 0 4 20 8); item Layer.Diffusion (box 8 0 12 12) |]
  in
  let nl = of_items items [] in
  Alcotest.(check int) "two nets" 2 nl.n_nets

(* ------------------------------------------------------------------ *)
(* Devices                                                            *)

let test_single_transistor () =
  let items =
    [| item Layer.Poly (box 0 4 20 8); item Layer.Diffusion (box 8 0 12 12) |]
  in
  let nl = of_items items [] in
  Alcotest.(check int) "one device" 1 (n_devices nl);
  match nl.devices with
  | [ d ] -> Alcotest.(check bool) "gate region" true
      (Box.equal d.gate (box 8 4 12 8))
  | _ -> Alcotest.fail "expected one device"

let test_fragmented_gate_merges () =
  (* the diffusion is drawn in two abutting pieces: still one
     transistor *)
  let items =
    [| item Layer.Poly (box 0 4 20 8);
       item Layer.Diffusion (box 8 0 12 6);
       item Layer.Diffusion (box 8 6 12 12) |]
  in
  let nl = of_items items [] in
  Alcotest.(check int) "merged to one device" 1 (n_devices nl)

let test_two_transistors_one_gate_line () =
  (* one poly line crossing two separate diffusions: two devices *)
  let items =
    [| item Layer.Poly (box 0 4 40 8);
       item Layer.Diffusion (box 5 0 10 12);
       item Layer.Diffusion (box 25 0 30 12) |]
  in
  let nl = of_items items [] in
  Alcotest.(check int) "two devices" 2 (n_devices nl)

let test_edge_touch_is_not_a_device () =
  let items =
    [| item Layer.Poly (box 0 4 8 8); item Layer.Diffusion (box 8 0 12 12) |]
  in
  Alcotest.(check int) "no device" 0 (n_devices (of_items items []))

(* ------------------------------------------------------------------ *)
(* Generation -> extraction loop                                      *)

let test_basic_cell_census () =
  (* the multiplier's basic cell draws four transistors *)
  let sample, _ = Rsg_mult.Sample_lib.build () in
  let basic = Db.find_exn sample.Rsg_core.Sample.db Rsg_mult.Sample_lib.basic_cell in
  Alcotest.(check int) "4 transistors in the basic cell" 4
    (n_devices (of_cell basic))

let test_multiplier_census_follows_personality () =
  (* four transistors per basic cell; the clock/carry masks' poly
     lands touching the core gates and merges into them (one
     continuous gate region), so personalisation leaves the count at
     exactly 4 per cell at every array size *)
  List.iter
    (fun (xsize, ysize) ->
      let g = Rsg_mult.Layout_gen.generate ~xsize ~ysize () in
      let nl = of_cell g.Rsg_mult.Layout_gen.array_cell in
      let cells = xsize * (ysize + 1) in
      Alcotest.(check int)
        (Printf.sprintf "%dx%d census" xsize ysize)
        (cells * 4) (n_devices nl))
    [ (2, 2); (3, 3); (4, 2) ]

let test_whole_multiplier_netlist () =
  (* Pinned node/edge counts for the complete multiplier (array plus
     register banks).  These are regression anchors: the array
     contributes 4 transistors per cell (xsize * (ysize+1) cells), the
     peripheral registers one each, and any change to the sample
     library or the generator that perturbs connectivity shows up here
     as a net- or device-count drift. *)
  List.iter
    (fun (xsize, ysize, exp_nets, exp_devices) ->
      let g = Rsg_mult.Layout_gen.generate ~xsize ~ysize () in
      let nl = of_cell g.Rsg_mult.Layout_gen.whole in
      Alcotest.(check int)
        (Printf.sprintf "%dx%d nets" xsize ysize)
        exp_nets nl.n_nets;
      Alcotest.(check int)
        (Printf.sprintf "%dx%d devices" xsize ysize)
        exp_devices (n_devices nl);
      (* every device's gate lies on both a poly and a diffusion item:
         the extractor's edges are well-formed *)
      List.iter
        (fun d ->
          let on layer =
            Array.exists
              (fun (it : Rsg_compact.Scanline.item) ->
                it.Rsg_compact.Scanline.layer = layer
                && Box.overlaps it.Rsg_compact.Scanline.box d.gate)
              nl.items
          in
          Alcotest.(check bool) "gate on poly" true (on Layer.Poly);
          Alcotest.(check bool) "gate on diffusion" true (on Layer.Diffusion))
        nl.devices)
    [ (2, 2, 78, 38); (3, 3, 155, 78); (4, 4, 250, 128) ]

let test_pla_census () =
  (* connect-ao contributes no poly; crosspoints carry no poly over
     diffusion; inbuf draws two poly columns over its diffusion *)
  let tt = Rsg_pla.Truth_table.of_strings [ ("10", "10"); ("01", "01") ] in
  let p = Rsg_pla.Gen.generate tt in
  let nl = of_cell p.Rsg_pla.Gen.cell in
  Alcotest.(check int) "2 inbufs x 2 gates" 4 (n_devices nl)

(* ------------------------------------------------------------------ *)
(* Scaling                                                            *)

let test_scale_simple () =
  let c = Cell.create "unit" in
  Cell.add_box c Layer.Metal (box 1 2 5 9);
  Cell.add_label c "x" (Vec.make 3 4);
  let c2 = Scale.cell ~num:2 c in
  Alcotest.(check string) "renamed" "unit-s2" c2.Cell.cname;
  (match Cell.boxes c2 with
  | [ (_, b) ] -> Alcotest.(check bool) "doubled" true (Box.equal b (box 2 4 10 18))
  | _ -> Alcotest.fail "one box");
  match Cell.labels c2 with
  | [ l ] -> Alcotest.(check bool) "label moved" true (Vec.equal l.Cell.at (Vec.make 6 8))
  | _ -> Alcotest.fail "one label"

let test_scale_hierarchy_shares () =
  let leaf = Cell.create "leaf" in
  Cell.add_box leaf Layer.Poly (box 0 0 4 4);
  let top = Cell.create "top" in
  ignore (Cell.add_instance top ~at:(Vec.make 0 0) leaf);
  ignore (Cell.add_instance top ~at:(Vec.make 10 0) leaf);
  let top3 = Scale.cell ~num:3 top in
  (match Cell.instances top3 with
  | [ i1; i2 ] ->
    Alcotest.(check bool) "definition shared" true (i1.Cell.def == i2.Cell.def);
    Alcotest.(check bool) "offset scaled" true
      (Vec.equal i2.Cell.point_of_call (Vec.make 30 0))
  | _ -> Alcotest.fail "two instances");
  (* flattened geometry equals scaling the flattened original *)
  let f = Flatten.flatten top and f3 = Flatten.flatten top3 in
  let scaled =
    Array.map (fun (l, b) -> (l, Scale.box ~num:3 ~den:1 b)) f.Flatten.flat_boxes
  in
  Alcotest.(check bool) "flatten commutes" true (scaled = f3.Flatten.flat_boxes)

let test_scale_down_and_inexact () =
  let c = Cell.create "even" in
  Cell.add_box c Layer.Metal (box 0 0 4 8);
  let half = Scale.cell ~num:1 ~den:2 c in
  (match Cell.boxes half with
  | [ (_, b) ] -> Alcotest.(check bool) "halved" true (Box.equal b (box 0 0 2 4))
  | _ -> Alcotest.fail "one box");
  let odd = Cell.create "odd" in
  Cell.add_box odd Layer.Metal (box 0 0 3 3);
  Alcotest.(check bool) "inexact raises" true
    (try ignore (Scale.cell ~num:1 ~den:2 odd); false
     with Scale.Inexact _ -> true);
  Alcotest.(check bool) "bad factor" true
    (try ignore (Scale.cell ~num:0 c); false with Invalid_argument _ -> true)

let test_scaled_multiplier_extracts_identically () =
  (* a technology shrink keeps the netlist: same nets, same devices *)
  let g = Rsg_mult.Layout_gen.generate ~xsize:2 ~ysize:2 () in
  let nl = of_cell g.Rsg_mult.Layout_gen.array_cell in
  let nl2 = of_cell (Scale.cell ~num:2 g.Rsg_mult.Layout_gen.array_cell) in
  Alcotest.(check int) "same nets" nl.n_nets nl2.n_nets;
  Alcotest.(check int) "same devices" (n_devices nl) (n_devices nl2)

(* ------------------------------------------------------------------ *)
(* Parallel determinism                                               *)

let test_domains_identical () =
  List.iter
    (fun (name, cell) ->
      let seq = of_cell ~domains:1 cell in
      List.iter
        (fun d ->
          Alcotest.(check bool)
            (Printf.sprintf "%s netlist identical at %d domains" name d)
            true
            (of_cell ~domains:d cell = seq))
        [ 2; 3 ])
    [ ("mult6",
       (Rsg_mult.Layout_gen.generate ~xsize:6 ~ysize:6 ())
         .Rsg_mult.Layout_gen.whole);
      ("ram8x4",
       (Rsg_ram.Ram_gen.generate ~words:8 ~bits:4 ()).Rsg_ram.Ram_gen.cell) ]

(* ------------------------------------------------------------------ *)
(* Typed terminal errors                                               *)

let test_unknown_terminal_each_side () =
  let items = [| item Layer.Metal (box 0 0 10 3) |] in
  let nl = of_items items [ ("a", Vec.make 1 1); ("off", Vec.make 50 50) ] in
  let expect_unknown label f =
    match f () with
    | (_ : bool) ->
        Alcotest.fail (Printf.sprintf "expected Unknown_terminal %s" label)
    | exception Unknown_terminal l ->
        Alcotest.(check string) "offending label" label l
  in
  (* left argument missing *)
  expect_unknown "ghost" (fun () -> connected nl "ghost" "a");
  (* right argument missing *)
  expect_unknown "ghost" (fun () -> connected nl "a" "ghost");
  (* a label placed over no conductor is just as unknown *)
  expect_unknown "off" (fun () -> connected nl "a" "off");
  (* both missing: the left argument is named first *)
  expect_unknown "gone" (fun () -> connected nl "gone" "ghost")

(* ------------------------------------------------------------------ *)
(* MOS triples (split-diffusion extraction)                            *)

let test_mos_triple_basic () =
  (* poly crosses the diffusion fully: source and drain resolve to two
     distinct diffusion nets, and the gate to the poly net *)
  let items =
    [| item Layer.Poly (box 0 4 20 8); item Layer.Diffusion (box 8 0 12 12) |]
  in
  let mn =
    mos_of_items items [ ("g", Vec.make 1 6); ("s", Vec.make 9 1);
                         ("d", Vec.make 9 11) ]
  in
  Alcotest.(check int) "one mos" 1 (n_mos mn);
  let m = mn.mn_mos.(0) in
  Alcotest.(check bool) "gate region" true (Box.equal m.m_gate (box 8 4 12 8));
  Alcotest.(check (option int)) "gate is the poly net"
    (List.assoc_opt "g" mn.mn_terminals) (Some m.m_gate_net);
  (match (m.m_source, m.m_drain) with
  | Some s, Some d ->
      Alcotest.(check bool) "source <> drain" true (s <> d);
      Alcotest.(check (option int)) "source label"
        (List.assoc_opt "s" mn.mn_terminals) (Some s);
      Alcotest.(check (option int)) "drain label"
        (List.assoc_opt "d" mn.mn_terminals) (Some d)
  | _ -> Alcotest.fail "expected both source and drain resolved");
  Alcotest.(check int) "channel splits off two diffusion nets: p+s+d" 3
    mn.mn_n_nets

let test_mos_dangling_side () =
  (* the gate runs to the bottom edge of the diffusion: no source
     fragment survives below it *)
  let items =
    [| item Layer.Poly (box 0 0 20 4); item Layer.Diffusion (box 8 0 12 12) |]
  in
  let mn = mos_of_items items [] in
  Alcotest.(check int) "one mos" 1 (n_mos mn);
  let m = mn.mn_mos.(0) in
  Alcotest.(check bool) "below side dangles" true (m.m_source = None);
  Alcotest.(check bool) "above side resolves" true (m.m_drain <> None)

let test_mos_census_matches_devices () =
  List.iter
    (fun (name, cell) ->
      Alcotest.(check int)
        (Printf.sprintf "%s: n_mos = n_devices" name)
        (n_devices (of_cell cell))
        (n_mos (mos_of_cell cell)))
    [ ("mult4",
       (Rsg_mult.Layout_gen.generate ~xsize:4 ~ysize:4 ())
         .Rsg_mult.Layout_gen.whole);
      ("pla",
       (Rsg_pla.Gen.generate
          (Rsg_pla.Truth_table.of_strings [ ("10-", "10"); ("0-1", "01") ]))
         .Rsg_pla.Gen.cell);
      ("decoder", (Rsg_pla.Gen.generate_decoder 3).Rsg_pla.Gen.cell) ]

let test_mos_domains_identical () =
  let cell =
    (Rsg_mult.Layout_gen.generate ~xsize:4 ~ysize:4 ())
      .Rsg_mult.Layout_gen.whole
  in
  let seq = mos_of_cell ~domains:1 cell in
  List.iter
    (fun d ->
      Alcotest.(check bool)
        (Printf.sprintf "mos netlist identical at %d domains" d)
        true
        (mos_of_cell ~domains:d cell = seq))
    [ 2; 4 ]

(* [mos_of_items] as it was before it dropped its net pass over the
   unsplit geometry: touching gate regions merge only when their polys
   share a net of that geometry.  The extractor now merges on touch
   alone (touching gates lie in touching polys, which are one net).
   Written plainly — all-pairs scans, no domains — and must agree with
   the extractor exactly. *)
let reference_mos_of_items items labels =
  let module S = Rsg_compact.Scanline in
  let rules = Rsg_compact.Rules.default in
  let nets0 = S.nets_of rules items in
  let n = Array.length items in
  let on layer =
    List.filter (fun i -> items.(i).S.layer = layer) (List.init n Fun.id)
  in
  let diffs =
    List.sort
      (fun i j ->
        compare (items.(i).S.box.Box.xmin, i) (items.(j).S.box.Box.xmin, j))
      (on Layer.Diffusion)
  in
  let proper (a : Box.t) (b : Box.t) =
    a.Box.xmin < b.Box.xmax && b.Box.xmin < a.Box.xmax
    && a.Box.ymin < b.Box.ymax && b.Box.ymin < a.Box.ymax
  in
  (* raw gates: polys in index order, diffusion in (xmin, index) order *)
  let gates =
    Array.of_list
      (List.concat_map
         (fun p ->
           List.filter_map
             (fun d ->
               let pb = items.(p).S.box and db = items.(d).S.box in
               if proper pb db then
                 Option.map (fun g -> (g, p, d)) (Box.intersect pb db)
               else None)
             diffs)
         (on Layer.Poly))
  in
  let ng = Array.length gates in
  let parent = Array.init ng Fun.id in
  let rec find i = if parent.(i) = i then i else find parent.(i) in
  for i = 0 to ng - 1 do
    for j = i + 1 to ng - 1 do
      let gi, pi, _ = gates.(i) and gj, pj, _ = gates.(j) in
      if nets0.(pi) = nets0.(pj) && Box.overlaps gi gj then begin
        let ri = find i and rj = find j in
        if ri <> rj then parent.(ri) <- rj
      end
    done
  done;
  (* diffusion split around its gates, in raw gate order *)
  let cuts = Array.make n [] in
  Array.iter (fun (g, _, d) -> cuts.(d) <- cuts.(d) @ [ g ]) gates;
  let out = ref [] and count = ref 0 in
  let push it =
    out := it :: !out;
    incr count;
    !count - 1
  in
  let remap = Array.make n (-1) and frags = Array.make n [] in
  Array.iteri
    (fun j it ->
      if it.S.layer = Layer.Diffusion then
        List.iter
          (fun b ->
            let idx = push { S.layer = Layer.Diffusion; box = b } in
            frags.(j) <- frags.(j) @ [ (idx, b) ])
          (List.fold_left
             (fun fs cut -> List.concat_map (fun f -> Box.subtract f cut) fs)
             [ it.S.box ] cuts.(j))
      else remap.(j) <- push it)
    items;
  let mn_items = Array.of_list (List.rev !out) in
  let mn_nets = S.nets_of rules mn_items in
  let conductor = function
    | Layer.Metal | Layer.Poly | Layer.Diffusion | Layer.Contact
    | Layer.Contact_cut ->
      true
    | _ -> false
  in
  let reps = Hashtbl.create 16 in
  Array.iteri
    (fun i it -> if conductor it.S.layer then Hashtbl.replace reps mn_nets.(i) ())
    mn_items;
  let side (f : Box.t) (r : Box.t) =
    let xov = min f.Box.xmax r.Box.xmax - max f.Box.xmin r.Box.xmin in
    let yov = min f.Box.ymax r.Box.ymax - max f.Box.ymin r.Box.ymin in
    if (f.Box.xmax = r.Box.xmin && yov > 0) || (f.Box.ymax = r.Box.ymin && xov > 0)
    then `Source
    else if
      (f.Box.xmin = r.Box.xmax && yov > 0) || (f.Box.ymin = r.Box.ymax && xov > 0)
    then `Drain
    else `Neither
  in
  let lower old v = match old with Some m when m <= v -> old | _ -> Some v in
  let tbl = Hashtbl.create 16 and order = ref [] in
  Array.iteri
    (fun gi (g, p, d) ->
      let r = find gi in
      let m =
        match Hashtbl.find_opt tbl r with
        | Some m -> { m with m_gate = Box.union m.m_gate g }
        | None ->
          order := r :: !order;
          { m_gate = g;
            m_gate_net = mn_nets.(remap.(p));
            m_source = None;
            m_drain = None }
      in
      let m =
        List.fold_left
          (fun m (idx, b) ->
            match side b g with
            | `Source -> { m with m_source = lower m.m_source mn_nets.(idx) }
            | `Drain -> { m with m_drain = lower m.m_drain mn_nets.(idx) }
            | `Neither -> m)
          m frags.(d)
      in
      Hashtbl.replace tbl r m)
    gates;
  let net_at at =
    let rec go i =
      if i >= Array.length mn_items then None
      else if
        conductor mn_items.(i).S.layer && Box.contains mn_items.(i).S.box at
      then Some mn_nets.(i)
      else go (i + 1)
    in
    go 0
  in
  let resolved = List.map (fun (t, at) -> (t, net_at at)) labels in
  { mn_items;
    mn_nets;
    mn_n_nets = Hashtbl.length reps;
    mn_mos = Array.of_list (List.rev_map (Hashtbl.find tbl) !order);
    mn_terminals =
      List.filter_map (fun (t, v) -> Option.map (fun v -> (t, v)) v) resolved;
    mn_unresolved =
      List.filter_map (fun (t, v) -> if v = None then Some t else None) resolved
  }

let prop_mos_matches_reference =
  let gen =
    QCheck.Gen.(
      let gen_item =
        let* l =
          frequency
            [ (3, return Layer.Poly); (3, return Layer.Diffusion);
              (1, return Layer.Contact); (1, return Layer.Metal) ]
        in
        let* x = int_range 0 30 and* y = int_range 0 30 in
        let* w = int_range 1 12 and* h = int_range 1 12 in
        return (item l (box x y (x + w) (y + h)))
      in
      let gen_label =
        let* x = int_range 0 40 and* y = int_range 0 40 and* k = int_range 0 99 in
        return (Printf.sprintf "t%d" k, Vec.make x y)
      in
      let* items = list_size (int_range 1 30) gen_item in
      let* labels = list_size (int_range 0 4) gen_label in
      return (Array.of_list items, labels))
  in
  let print (items, _) =
    String.concat " "
      (Array.to_list
         (Array.map
            (fun it ->
              let b = it.Rsg_compact.Scanline.box in
              Printf.sprintf "%s[%d,%d..%d,%d]"
                (Layer.name it.Rsg_compact.Scanline.layer)
                b.Box.xmin b.Box.ymin b.Box.xmax b.Box.ymax)
            items))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"random layouts match the reference"
       (QCheck.make ~print gen) (fun (items, labels) ->
         mos_of_items items labels = reference_mos_of_items items labels))

let test_mos_families_match_reference () =
  List.iter
    (fun (name, cell) ->
      let f = Flatten.flatten cell in
      let items = Rsg_compact.Scanline.items_of_flat f in
      let labels = Array.to_list f.Flatten.flat_labels in
      Alcotest.(check bool)
        (Printf.sprintf "%s: mos netlist equals the reference" name)
        true
        (mos_of_items items labels = reference_mos_of_items items labels))
    [ ("multiplier",
       (Rsg_mult.Layout_gen.generate ~xsize:8 ~ysize:8 ())
         .Rsg_mult.Layout_gen.whole);
      ("pla",
       (Rsg_pla.Gen.generate
          (Rsg_pla.Truth_table.of_strings [ ("10-", "10"); ("0-1", "01") ]))
         .Rsg_pla.Gen.cell);
      ("decoder", (Rsg_pla.Gen.generate_decoder 3).Rsg_pla.Gen.cell);
      ("ram", (Rsg_ram.Ram_gen.generate ~words:8 ~bits:4 ()).Rsg_ram.Ram_gen.cell)
    ]

let () =
  Alcotest.run "rsg_extract"
    [ ("nets",
       [ Alcotest.test_case "basics" `Quick test_nets_basic;
         Alcotest.test_case "contact joins layers" `Quick
           test_contact_joins_layers;
         Alcotest.test_case "poly-diff separate" `Quick
           test_poly_diff_do_not_join ]);
      ("devices",
       [ Alcotest.test_case "single transistor" `Quick test_single_transistor;
         Alcotest.test_case "fragmented gate merges" `Quick
           test_fragmented_gate_merges;
         Alcotest.test_case "two on one line" `Quick
           test_two_transistors_one_gate_line;
         Alcotest.test_case "edge touch" `Quick test_edge_touch_is_not_a_device ]);
      ("generated",
       [ Alcotest.test_case "basic cell census" `Quick test_basic_cell_census;
         Alcotest.test_case "multiplier census" `Quick
           test_multiplier_census_follows_personality;
         Alcotest.test_case "whole multiplier netlist" `Quick
           test_whole_multiplier_netlist;
         Alcotest.test_case "pla census" `Quick test_pla_census ]);
      ("scale",
       [ Alcotest.test_case "simple" `Quick test_scale_simple;
         Alcotest.test_case "hierarchy shares" `Quick
           test_scale_hierarchy_shares;
         Alcotest.test_case "down + inexact" `Quick test_scale_down_and_inexact;
         Alcotest.test_case "shrunk multiplier netlist" `Quick
           test_scaled_multiplier_extracts_identically ]);
      ("errors",
       [ Alcotest.test_case "unknown terminal, each side" `Quick
           test_unknown_terminal_each_side ]);
      ("mos",
       [ Alcotest.test_case "triple basic" `Quick test_mos_triple_basic;
         Alcotest.test_case "dangling side" `Quick test_mos_dangling_side;
         Alcotest.test_case "census matches devices" `Quick
           test_mos_census_matches_devices;
         Alcotest.test_case "identical across domains" `Quick
           test_mos_domains_identical;
         prop_mos_matches_reference;
         Alcotest.test_case "families match the reference" `Quick
           test_mos_families_match_reference ]);
      ("domains",
       [ Alcotest.test_case "netlist identical" `Quick test_domains_identical ]) ]
