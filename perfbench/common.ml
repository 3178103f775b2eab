(* Shared plumbing of the benchmark passes: the job loop, the per-layer
   ledger of the traced pass, and the JSON record a pass prints.

   A pass is one fresh process running one workload in one of three
   modes:
   - [timed]: set up, then run jobs for [--seconds] of job time
     (at least [min_jobs]), or exactly [--jobs] jobs,
     with tracing off;
   - [traced]: the same, with every call into a layer wrapped by
     {!layer} and [Obs] recording on;
   - [setup]: set up and exit (run.py repeats set-up in fresh
     processes and reports the median).
   Every job returns an untimed check closure; its verdict counts the
   job as failed or not.  The clock is paused while checks run. *)

module Json = Rsg_serve.Json
module Obs = Rsg_obs.Obs

let now = Unix.gettimeofday

(* process start, as close as the program can observe it *)
let t_start = now ()

type mode = Timed | Traced | Setup

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  mode : mode;
  jobs : int option;  (** a fixed job count instead of [seconds] *)
  domains : int;  (** domains given to the in-process layers *)
  work_dir : string;  (** working directory inside the checkout *)
}

(* ---- the ledger ----------------------------------------------------- *)

let tracing = ref false

type acc = { mutable secs : float; mutable words : float }

let accs : (string, acc) Hashtbl.t = Hashtbl.create 32

let work : (string, float) Hashtbl.t = Hashtbl.create 32

let acc_of name =
  match Hashtbl.find_opt accs name with
  | Some a -> a
  | None ->
    let a = { secs = 0.; words = 0. } in
    Hashtbl.replace accs name a;
    a

(* [layer name f] runs [f ()]; in a traced pass it also adds the call's
   seconds and minor words to [name].  Nested layers each count their
   full extent. *)
let layer name f =
  if not !tracing then f ()
  else begin
    let w0 = Gc.minor_words () in
    let t0 = now () in
    let r = f () in
    let a = acc_of name in
    a.secs <- a.secs +. (now () -. t0);
    a.words <- a.words +. (Gc.minor_words () -. w0);
    r
  end

(* a work count returned by a layer (boxes, levels, nets...) *)
let count name v =
  if !tracing then
    Hashtbl.replace work name
      (v +. Option.value ~default:0. (Hashtbl.find_opt work name))

let secs name = match Hashtbl.find_opt accs name with Some a -> a.secs | None -> 0.

let words name =
  match Hashtbl.find_opt accs name with Some a -> a.words | None -> 0.

let worked name = Option.value ~default:0. (Hashtbl.find_opt work name)

(* every span name with its total seconds over the whole tree *)
let obs_span_totals () =
  let tbl = Hashtbl.create 32 in
  let rec go (n : Obs.span_node) =
    Hashtbl.replace tbl n.Obs.sp_name
      (n.Obs.sp_total +. Option.value ~default:0. (Hashtbl.find_opt tbl n.Obs.sp_name));
    List.iter go n.Obs.sp_children
  in
  List.iter go (Obs.spans ());
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []

(* total seconds of every [Obs] span called [name], wherever it sits in
   the tree — the library's own boundary timers *)
let obs_span name = Option.value ~default:0. (List.assoc_opt name (obs_span_totals ()))

let obs_counter name =
  float_of_int (Option.value ~default:0 (List.assoc_opt name (Obs.counters ())))

(* ---- statistics ----------------------------------------------------- *)

let median xs =
  match List.sort compare xs with
  | [] -> 0.
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* VmHWM of this process, in MiB *)
let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> 0.
  | s ->
    List.fold_left
      (fun acc line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | kb :: _ -> (
            match float_of_string_opt kb with Some k -> k /. 1024. | None -> acc)
          | [] -> acc)
        | _ -> acc)
      0. (String.split_on_char '\n' s)

(* ---- host speed ----------------------------------------------------- *)

(* The host this benchmark was written on changes speed for seconds to
   minutes at a time (memory contention from outside the VM; see
   NOTES.md).  A fixed reference kernel, timed between jobs, samples
   that speed, and run.py scales the job times by the kernel's median
   time.  The kernel allocates short-lived lists, through the same
   minor heap as the jobs, and makes random reads and writes over an
   array outside the OCaml heap. *)
let ref_mem = Bigarray.(Array1.create int32 c_layout (1 lsl 22))

let () = Bigarray.Array1.fill ref_mem 1l

(* bytes of [ref_mem], which is resident and so part of VmHWM *)
let ref_bytes = 4 * Bigarray.Array1.dim ref_mem

let ref_kernel () =
  let mask = Bigarray.Array1.dim ref_mem - 1 in
  let x = ref 12345 and acc = ref 0 in
  for _ = 1 to 1500 do
    let l = List.init 64 (fun i -> (i, !x + i)) in
    acc := List.fold_left (fun a (i, v) -> a + i + v) !acc l;
    for _ = 1 to 100 do
      x := ((!x * 1103515245) + 12345) land 0x3fffffff;
      let i = !x land mask in
      let v = Int32.to_int (Bigarray.Array1.unsafe_get ref_mem i) in
      acc := !acc + v;
      Bigarray.Array1.unsafe_set ref_mem ((i + 4099) land mask) (Int32.of_int (v lxor !acc))
    done
  done;
  ignore (Sys.opaque_identity !acc)

let host_samples = ref []

(* time one run of the reference kernel.  An untimed run first brings
   its array back into the caches, so the sample does not depend on
   how much of it the preceding job evicted. *)
let sample_host () =
  ref_kernel ();
  let t0 = now () in
  ref_kernel ();
  host_samples := (now () -. t0) :: !host_samples

(* ---- the job loop --------------------------------------------------- *)

type check = unit -> (unit, string) result

type run = {
  lats : float list;  (** per-job seconds, in job order *)
  tags : string list;  (** per-job kind, as set by {!tag} *)
  window : float;  (** sum of job seconds; wall seconds for concurrent clients *)
  failures : (int * string) list;
}

let current_tag = ref ""

(* name the kind of the running job, for per-kind latency reports *)
let tag s = current_tag := s

(* [drive opts ~min_jobs job]: call [job i] for i = 0, 1, ...
   The loop stops once [seconds] of job time have passed and at least
   [min_jobs] jobs ran — or, given [opts.jobs], after exactly that many
   jobs.  A job that raises, or whose check fails, is counted failed.
   The reference kernel runs, untimed, before every job. *)
let drive opts ~min_jobs (job : int -> check) =
  let lats = ref [] and window = ref 0. and failures = ref [] and n = ref 0 in
  let tags = ref [] in
  let more () =
    match (opts.mode, opts.jobs) with
    | Setup, _ -> false
    | _, Some k -> !n < k
    | _, None -> !window < opts.seconds || !n < min_jobs
  in
  while more () do
    let i = !n in
    sample_host ();
    let t0 = now () in
    let outcome = try Ok (job i) with e -> Error (Printexc.to_string e) in
    let dt = now () -. t0 in
    lats := dt :: !lats;
    tags := !current_tag :: !tags;
    window := !window +. dt;
    (* the library's own spans and counters must not see the check *)
    let obs = Obs.is_enabled () in
    Obs.disable ();
    (match outcome with
    | Error m -> failures := (i, m) :: !failures
    | Ok check -> (
      match check () with
      | Ok () -> ()
      | Error m -> failures := (i, m) :: !failures
      | exception e -> failures := (i, Printexc.to_string e) :: !failures));
    if obs then Obs.enable ();
    incr n
  done;
  { lats = List.rev !lats; tags = List.rev !tags; window = !window;
    failures = List.rev !failures }

let no_run = { lats = []; tags = []; window = 0.; failures = [] }

(* ---- the pass record ------------------------------------------------ *)

type result = {
  setup_s : float;
  run : run;
  self_checks : (string * bool) list;
      (** each oracle's verdict on a seeded defect: [true] = rejected *)
  extra : (string * float) list;  (** workload end-to-end extras *)
  layers : (string * float) list;  (** per-layer metrics (traced pass) *)
  deterministic : (string * float) list;
      (** work counts and minor words that must repeat exactly *)
  shares : (string * float) list;  (** layer seconds / job seconds *)
}

let num f = Json.Float f

let print_result opts r =
  let obj kvs = Json.Obj (List.map (fun (k, v) -> (k, num v)) kvs) in
  let j =
    Json.Obj
      [
        ("workload", Json.String opts.workload);
        ( "pass",
          Json.String
            (match opts.mode with
            | Timed -> "timed"
            | Traced -> "traced"
            | Setup -> "setup") );
        ("domains", Json.Int opts.domains);
        ("setup_s", num r.setup_s);
        ("lats", Json.List (List.map num r.run.lats));
        ("tags", Json.List (List.map (fun t -> Json.String t) r.run.tags));
        ("window_s", num r.run.window);
        ("attempted", Json.Int (List.length r.run.lats));
        ("failed", Json.Int (List.length r.run.failures));
        ( "failures",
          Json.List
            (List.map
               (fun (i, m) -> Json.String (Printf.sprintf "job %d: %s" i m))
               r.run.failures) );
        (* the reference kernel's array is not the program's memory *)
        ("peak_rss_mb", num (peak_rss_mb () -. (float_of_int ref_bytes /. 1048576.)));
        ("ref_s", Json.List (List.rev_map num !host_samples));
        ( "self_checks",
          Json.Obj (List.map (fun (k, b) -> (k, Json.Bool b)) r.self_checks) );
        ("extra", obj r.extra);
        ("layers", obj r.layers);
        ("deterministic", obj r.deterministic);
        ("shares", obj r.shares);
      ]
  in
  print_endline (Json.to_string j)

(* seconds from process start until now: the set-up time of a pass *)
let since_start () = now () -. t_start

(* a seeded PRNG per purpose, so adding draws for one input family
   never shifts another's *)
let rng opts salt = Random.State.make [| opts.seed; salt |]

(* Fisher-Yates with a seeded state, in place; returns [a] *)
let shuffle st a =
  for k = Array.length a - 1 downto 1 do
    let j = Random.State.int st (k + 1) in
    let t = a.(k) in
    a.(k) <- a.(j);
    a.(j) <- t
  done;
  a

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
  end

let rec rm_rf p =
  match Sys.is_directory p with
  | true ->
    Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
    Sys.rmdir p
  | false -> Sys.remove p
  | exception Sys_error _ -> ()

(* a seeded random truth table of fixed shape; every term drives at
   least one output so no product line is dead *)
let random_table st ~inputs ~outputs ~terms =
  let module T = Rsg_pla.Truth_table in
  let term () =
    let lits =
      Array.init inputs (fun _ ->
          match Random.State.int st 3 with 0 -> T.T | 1 -> T.F | _ -> T.X)
    in
    let outs = Array.init outputs (fun _ -> Random.State.bool st) in
    outs.(Random.State.int st outputs) <- true;
    { T.lits; outs }
  in
  T.make ~n_inputs:inputs ~n_outputs:outputs (List.init terms (fun _ -> term ()))

(* the seeded defect every DRC oracle must catch: the library's own
   mutation self-check narrows one box of a clean layout below its
   width rule *)
let drc_rejects_defect cell =
  match Rsg_drc.Drc.self_check_cell ~domains:1 cell with
  | Ok sc ->
    let mutated = Rsg_layout.Cell.create "mutant" in
    List.iter
      (fun (l, b) ->
        if l = sc.Rsg_drc.Drc.sc_layer && b = sc.Rsg_drc.Drc.sc_original then
          Rsg_layout.Cell.add_box mutated l sc.Rsg_drc.Drc.sc_mutated
        else Rsg_layout.Cell.add_box mutated l b)
      (Array.to_list (Rsg_layout.Flatten.flatten cell).Rsg_layout.Flatten.flat_boxes);
    let protos = Rsg_layout.Flatten.prototypes mutated in
    not (Rsg_drc.Drc.hier_clean (Rsg_drc.Drc.check_protos ~domains:1 protos))
  | Error _ -> false
