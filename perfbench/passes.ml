(* One pass of each workload, through the simulator's public library
   calls only: Kernel.boot, Workloads.Server.run, Runner.run,
   Baseline.doc_to_json / Json.to_string, the Span / Recorder / Flight /
   Span_export instruments and Perfstat.run.  Timing is the caller's
   business; a pass returns what it computed so the caller can check it. *)

open Ppc
module Kernel = Kernel_sim.Kernel
module Sv = Workloads.Server
module Config = Mmu_tricks.Config
module Json = Mmu_tricks.Json
module Flight = Mmu_tricks.Flight
module Span_export = Mmu_tricks.Span_export
module Runner = Mmu_tricks.Runner
module Baseline = Mmu_tricks.Baseline
module Experiments = Mmu_tricks.Experiments

let machine = Machine.ppc604_185
let mhz = machine.Machine.mhz

(* E17's four configurations, labelled as in Schema.server_configs. *)
let configs =
  List.combine Schema.server_configs
    [ Config.baseline;
      Config.optimized;
      Config.optimized_precise_flush;
      Config.optimized_no_reclaim ]

(* Requests per configuration in one pass of each server workload. *)
let fork_exec_requests = 2_000
let shared_mm_requests = 5_000

let params model requests = { Sv.default_params with Sv.model; requests }

let boot ~seed policy = Kernel.boot ~machine ~policy ~seed ()

(* ------------------------------------------------------ server digests *)

type served = {
  label : string;
  perf : Perf.t;  (** counter deltas of the request loop *)
  hist : Hist.t;  (** completion latency, cycles *)
  completed : int;
  digest : string;
}

(* A digest of every Perf counter and the whole latency histogram: two
   runs agree on it exactly when the simulated system behaved the same. *)
let digest perf hist =
  let b = Buffer.create 1024 in
  List.iter (fun (n, v) -> Printf.bprintf b "%s=%d;" n v) (Perf.fields perf);
  Printf.bprintf b "count=%d;sum=%d;max=%d;" (Hist.count hist) (Hist.sum hist)
    (Hist.max_value hist);
  List.iter
    (fun (lo, hi, c) -> Printf.bprintf b "[%d,%d]=%d;" lo hi c)
    (Hist.buckets hist);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Drive the request loop on a booted kernel. *)
let serve ~label ~params k =
  let before = Perf.snapshot (Kernel.perf k) in
  let hist, _ = Sv.run k ~params in
  let perf = Perf.diff ~after:(Perf.snapshot (Kernel.perf k)) ~before in
  { label; perf; hist; completed = Hist.count hist; digest = digest perf hist }

let sim_busy_ms s = Cost.us_of_cycles ~mhz (Perf.busy_cycles s.perf) /. 1000.

(* The 99th percentile of the request latencies the span recorder [sp]
   kept, in us.  It is exact: Hist.percentile_interpolated spreads the
   rank over a power-of-two bucket whose top is the slowest request, so
   that one request set most of the figure. *)
let sim_p99_us sp =
  let lat = ref [] in
  Span.iter sp (fun q ->
      if q.Span.q_latency >= 0 then lat := float_of_int q.Span.q_latency :: !lat);
  Stats.quantile !lat 0.99 /. float_of_int mhz

(* ------------------------------------------------- shared-mm, observed *)

(* A kernel with the request-span recorder and the flight recorder armed,
   the recorder streaming into an in-memory Flight sink. *)
type observed = {
  kernel : Kernel.t;
  timeline : Buffer.t;
  sink : Flight.sink;
}

let label_observed = "optimized"

let arm ~requests k =
  let sp = Kernel.span k in
  Span.enable ~requests sp;
  Span.set_label sp label_observed;
  let rcd = Kernel.recorder k in
  Recorder.enable rcd;
  Recorder.set_label rcd label_observed;
  let timeline = Buffer.create 65536 in
  let sink =
    Flight.sink
      ~write:(fun l ->
        Buffer.add_string timeline l;
        Buffer.add_char timeline '\n')
      ()
  in
  Flight.attach sink rcd;
  { kernel = k; timeline; sink }

let finish_recording o = Flight.finish o.sink (Kernel.recorder o.kernel)

(* The spans document, rendered: what an exporter would write. *)
let export_spans o =
  Json.to_string ~compact:true (Span_export.to_json [ Kernel.span o.kernel ])

(* The simulated metrics of the fork-exec shape: its optimized config
   served once more with the span recorder armed, which observes the run
   without changing what is simulated. *)
let sim_fork_exec ~seed =
  let k = boot ~seed Config.optimized in
  Span.enable ~requests:fork_exec_requests (Kernel.span k);
  let s =
    serve ~label:"optimized" ~params:(params Sv.Fork_exec fork_exec_requests) k
  in
  (sim_busy_ms s, sim_p99_us (Kernel.span k))

(* ---------------------------------------------------------------- sweep *)

type sweep = {
  outcomes : (string * Runner.outcome) list;
  doc : string;  (** the results document, as experiment --json writes it *)
}

let tables outcomes =
  List.filter_map
    (fun (id, o) -> Option.map (fun t -> (id, t)) (Runner.table_of_outcome o))
    outcomes

let render_doc ~seed tables =
  Json.to_string (Baseline.doc_to_json ~seed tables) ^ "\n"

let sweep ~jobs ~seed =
  let outcomes = Runner.run ~jobs ~seed Experiments.all in
  { outcomes; doc = render_doc ~seed (tables outcomes) }

let read_file path =
  In_channel.with_open_bin path In_channel.input_all

let sweep_reference_path = "baselines/seed42.json"

(* ----------------------------------------------------------- reference *)

(* The committed results document with its "observability" sections
   removed, rendered as [render_doc] renders.  The CLI adds those
   sections from process-wide kernel registries; the results checker
   ignores them, and so does this comparison. *)
let sweep_reference () =
  let strip = function
    | Json.Obj fields ->
        Json.Obj (List.filter (fun (k, _) -> k <> "observability") fields)
    | j -> j
  in
  match Json.of_string (read_file sweep_reference_path) with
  | Error e -> failwith (sweep_reference_path ^ ": " ^ e)
  | Ok (Json.Obj fields) ->
      let fields =
        List.map
          (function
            | "experiments", Json.List es ->
                ("experiments", Json.List (List.map strip es))
            | kv -> kv)
          fields
      in
      Json.to_string (Json.Obj fields) ^ "\n"
  | Ok _ -> failwith (sweep_reference_path ^ ": not an object")

(* Server digests at the benchmark's default seed, kept with the
   benchmark in perfbench/reference.json; the sweep's reference is the
   committed baselines/seed42.json. *)
let default_seed = 42
let reference_path = "perfbench/reference.json"

type reference = {
  r_seed : int;
  r_fork_exec_requests : int;
  r_shared_mm_requests : int;
  r_digests : (string * string) list;  (** "<workload>/<config>" -> hex *)
}

let reference_to_json r =
  Json.Obj
    [ ("seed", Json.Int r.r_seed);
      ("fork_exec_requests", Json.Int r.r_fork_exec_requests);
      ("shared_mm_requests", Json.Int r.r_shared_mm_requests);
      ( "digests",
        Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) r.r_digests) ) ]

let reference_of_json j =
  let int k = Option.bind (Json.member k j) Json.to_int_opt in
  match
    ( int "seed",
      int "fork_exec_requests",
      int "shared_mm_requests",
      Json.member "digests" j )
  with
  | Some s, Some f, Some m, Some (Json.Obj ds) ->
      let digests =
        List.filter_map
          (fun (k, v) -> Option.map (fun v -> (k, v)) (Json.to_string_opt v))
          ds
      in
      Ok
        { r_seed = s;
          r_fork_exec_requests = f;
          r_shared_mm_requests = m;
          r_digests = digests }
  | _ -> Error "reference: missing seed, request counts or digests"

let load_reference () =
  match Json.of_string (read_file reference_path) with
  | Ok j -> reference_of_json j
  | Error e -> Error e
  | exception Sys_error e -> Error e

(* The digest a run at [seed] must reproduce, when the reference covers
   it: same seed and same request counts as this build of the benchmark. *)
let expected_digest reference ~seed key =
  match reference with
  | Ok r
    when r.r_seed = seed
         && r.r_fork_exec_requests = fork_exec_requests
         && r.r_shared_mm_requests = shared_mm_requests ->
      List.assoc_opt key r.r_digests
  | _ -> None

let compute_reference () =
  let seed = default_seed in
  let fx =
    List.map
      (fun (label, policy) ->
        let s =
          serve ~label ~params:(params Sv.Fork_exec fork_exec_requests)
            (boot ~seed policy)
        in
        ("fork-exec/" ^ label, s.digest))
      configs
  in
  let sm =
    serve ~label:label_observed
      ~params:(params Sv.Shared_mm shared_mm_requests)
      (boot ~seed Config.optimized)
  in
  { r_seed = seed;
    r_fork_exec_requests = fork_exec_requests;
    r_shared_mm_requests = shared_mm_requests;
    r_digests = fx @ [ ("shared-mm-observed/" ^ label_observed, sm.digest) ] }

(* --------------------------------------------------------------- probes *)

(* Host ns per call of [f], median of five rounds of [n] calls. *)
let per_call_ns ~n f =
  let round () =
    let t0 = Stats.now () in
    for _ = 1 to n do
      f ()
    done;
    (Stats.now () -. t0) *. 1e9 /. float_of_int n
  in
  f ();
  Stats.median (List.init 5 (fun _ -> round ()))

(* A warmed optimized kernel running one resident task. *)
let warmed ~seed =
  let k = boot ~seed Config.optimized in
  let t = Kernel.spawn k ~text_pages:12 ~data_pages:24 ~stack_pages:2 () in
  Kernel.switch_to k t;
  Kernel.user_run k ~instrs:2_000;
  (k, t)

(* fork + exec + exit of a child, back to the parent. *)
let probe_fork_exec_exit_ns ~seed =
  let k, parent = warmed ~seed in
  per_call_ns ~n:200 (fun () ->
      let child = Kernel.sys_fork k in
      Kernel.switch_to k child;
      Kernel.sys_exec k ~text_pages:12 ~data_pages:24 ~stack_pages:2;
      Kernel.sys_exit k;
      Kernel.switch_to k parent)

(* mmap 24 pages, store to each, munmap: the request path's churn. *)
let probe_mmap_munmap_ns ~seed =
  let k, _ = warmed ~seed in
  per_call_ns ~n:500 (fun () ->
      let buf = Kernel.sys_mmap k ~pages:24 ~writable:true in
      for i = 0 to 23 do
        Kernel.touch k Mmu.Store (buf + (i lsl Addr.page_shift))
      done;
      Kernel.sys_munmap k ~ea:buf ~pages:24)

let probe_idle_slice_ns ~seed =
  let k, _ = warmed ~seed in
  per_call_ns ~n:20_000 (fun () -> Kernel.idle_slice k)

let probe_user_run_ns ~seed =
  let k, _ = warmed ~seed in
  per_call_ns ~n:20_000 (fun () -> Kernel.user_run k ~instrs:400)
