(* The simulator's benchmark.

     main.exe --workload fork-exec|sweep
              [--seed N] [--seconds S] [--trace 0|1]
     main.exe --write-reference

   With --trace 0 it repeats passes of the workload for about S seconds
   and prints the end-to-end metrics; with --trace 1 it makes one traced
   run that prints the per-layer metrics.  Either way it checks the
   simulated output, prints a human-readable table and, as its last line
   of standard output, one JSON object
   {"correct", "attempted", "failed", "metrics"}.  A copy of each result,
   with the host fingerprint, and the traced run's spans (Chrome trace
   JSON) go under .perfbench/.  --write-reference recomputes the server
   digests of perfbench/reference.json.  Run it from the repository root
   through perfbench/run.sh, which builds it with the release profile. *)

open Perfbench
module P = Passes
module Kernel = Kernel_sim.Kernel
module Sv = Workloads.Server
module Json = Mmu_tricks.Json
module Runner = Mmu_tricks.Runner
module Perfstat = Mmu_tricks.Perfstat
module Report = Mmu_tricks.Report
module Experiments = Mmu_tricks.Experiments
module Config = Mmu_tricks.Config

let out_dir = ".perfbench"

(* ------------------------------------------------------------ checking *)

(* Failure bookkeeping shared by every workload: [attempt n] counts n
   attempted operations, [fail n why] marks n of them failed (never more
   than were attempted, though one operation can fail two checks). *)
type tally = {
  mutable t_attempted : int;
  mutable t_failed : int;
  mutable t_why : string list;
}

let tally () = { t_attempted = 0; t_failed = 0; t_why = [] }
let attempt t n = t.t_attempted <- t.t_attempted + n

let fail t n why =
  t.t_failed <- min t.t_attempted (t.t_failed + n);
  if List.length t.t_why < 10 then t.t_why <- why :: t.t_why

(* The digest a server run must reproduce.  Runs checked against the
   reference ([reference] given) must match it at the default seed, where
   it has to cover them; at other seeds, and for runs outside the
   reference, every run of a key must match the first one seen in this
   process. *)
let first_digests : (string, string) Hashtbl.t = Hashtbl.create 8

let check_served tally ?reference ~seed ~workload ~requests
    (r : (P.served, string * string) Stdlib.result) =
  attempt tally requests;
  match r with
  | Error (label, e) -> fail tally requests (label ^ " raised " ^ e)
  | Ok s ->
      let key = workload ^ "/" ^ s.P.label in
      let expected =
        match reference with
        | Some reference when seed = P.default_seed -> (
            match P.expected_digest reference ~seed key with
            | Some d -> Some d
            | None ->
                fail tally requests
                  (Printf.sprintf "%s is not covered by %s" key
                     P.reference_path);
                None)
        | _ -> Hashtbl.find_opt first_digests key
      in
      if not (Hashtbl.mem first_digests key) then
        Hashtbl.replace first_digests key s.P.digest;
      if s.P.completed <> requests then
        fail tally requests
          (Printf.sprintf "%s completed %d of %d requests" key s.P.completed
             requests)
      else
        match expected with
        | Some d when d <> s.P.digest ->
            fail tally requests
              (Printf.sprintf "%s digest %s, expected %s" key s.P.digest d)
        | _ -> ()

let serve_caught ~label ~params k =
  try Ok (P.serve ~label ~params k)
  with e -> Error (label, Printexc.to_string e)

let check_sweep tally ~seed ~reference_doc ~first_doc (s : P.sweep) =
  let n = List.length s.P.outcomes in
  attempt tally n;
  List.iter
    (fun (id, o) ->
      match o with
      | Runner.Done _ -> ()
      | o -> fail tally 1 (id ^ ": " ^ Runner.describe o))
    s.P.outcomes;
  let expected =
    if seed = P.default_seed then Some (Lazy.force reference_doc)
    else first_doc
  in
  match expected with
  | Some d when d <> s.P.doc ->
      fail tally n
        (if seed = P.default_seed then
           "results document differs from " ^ P.sweep_reference_path
         else "results document differs between passes")
  | _ -> ()

(* ------------------------------------------------------- common metrics *)

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.

let paper_metrics entries notes =
  let sc = Paper.score entries in
  notes :=
    Printf.sprintf
      "paper_err: median |ln(measured/paper)| over %d T1-T3 cells (%d \
       calibration anchors dropped), max %.3f"
      sc.Paper.scored sc.Paper.anchors_dropped sc.Paper.max_err
    :: !notes;
  sc

let unvalidated_note =
  "only paper_err is checked against reference results (the paper's \
   T1-T3 cells); every other simulated number is unvalidated"

let sim_note =
  "sim_busy_ms and sim_p99_us: the fork-exec optimized config served \
   after timing with the span recorder armed; sim_p99_us is the exact \
   99th percentile of its request latencies"

let cold_note =
  "simulated statistics start from freshly booted kernels: caches, TLBs \
   and the htab start empty"

(* ------------------------------------------------------ timed passes *)

type sample = {
  setup_s : float;
  work_s : float;
  units : int;  (** requests (server) or experiments (sweep) *)
  minor_words : float;
  major_words : float;
}

(* Repeat [pass] while the next one is expected to fit in [seconds];
   always at least one.  Also returns the peak heap after the first pass:
   the process-lifetime peak after a fixed amount of work, where the
   final one would depend on how many passes fitted. *)
let repeat ~seconds pass =
  let t0 = Stats.now () in
  let heap = ref Float.nan in
  let rec go acc =
    let s, dt = Stats.time pass in
    if acc = [] then heap := peak_heap_mb ();
    let acc = s :: acc in
    if Stats.now () -. t0 +. dt > float_of_int seconds then List.rev acc
    else go acc
  in
  let samples = go [] in
  (samples, !heap)

(* Time a set-up step from a settled heap, so that it does not pay for
   collecting the previous pass's garbage. *)
let timed_setup f =
  Gc.full_major ();
  Stats.time f

(* [work f] times [f] and measures the GC words it allocated.  A minor
   collection before and after [f], outside the timed region, promotes
   every survivor of [f] inside the measured interval, so the major words
   do not depend on where the collector happened to run.  Minor words
   come from Gc.minor_words: under OCaml 5, Gc.counters and Gc.quick_stat
   only account them at a collection. *)
let work f =
  Gc.minor ();
  let minor0 = Gc.minor_words () and _, _, major0 = Gc.counters () in
  let r, dt = Stats.time f in
  Gc.minor ();
  let minor1 = Gc.minor_words () and _, _, major1 = Gc.counters () in
  (r, dt, minor1 -. minor0, major1 -. major0)

(* Every timed pass, for the result file. *)
let samples_json ~setup samples =
  let floats l = Json.List (List.map (fun x -> Json.Float x) l) in
  Json.Obj
    [ ("setup_s", floats setup);
      ("work_s", floats (List.map (fun s -> s.work_s) samples));
      ("units", Json.List (List.map (fun s -> Json.Int s.units) samples));
      ("minor_words", floats (List.map (fun s -> s.minor_words) samples));
      ("major_words", floats (List.map (fun s -> s.major_words) samples)) ]

(* The host-time work metrics come from the slower half of a run's
   passes.  On a shared host a pass runs either with its core contended,
   near a steady ceiling, or in faster phases that come and go over
   seconds to minutes, and how much of a run they cover varies from run
   to run.  Over three ten-seed sets of 40 s runs on a 2-vCPU Xeon VM the
   quartile spread of the slower-half mean, as a share of the median,
   was 0.09/0.07/0.16 on fork-exec and 0.13/0.10/0.12 on sweep, against
   0.13/0.12/0.14 and 0.15/0.14/0.17 for the mean of all passes.  Set-up
   times stay medians of their rounds. *)
let end_to_end_of ~samples ~peak_heap ~setup ~sim ~paper ~tally =
  let med f = Stats.median (List.map f samples) in
  let units s = float_of_int s.units in
  let pass_s = Stats.slow_half_mean (List.map (fun s -> s.work_s) samples) in
  let busy_ms, p99_us = sim in
  let ok_share =
    if tally.t_attempted = 0 then 0.
    else 1. -. (float_of_int tally.t_failed /. float_of_int tally.t_attempted)
  in
  [ ("req_per_s", med units /. pass_s);
    ("sweep_s", pass_s);
    ("setup_s", Stats.median setup);
    ("minor_words_per_req", med (fun s -> s.minor_words /. units s));
    ("major_words_per_req", med (fun s -> s.major_words /. units s));
    ("peak_heap_mb", peak_heap);
    ("sim_busy_ms", busy_ms);
    ("sim_p99_us", p99_us);
    ("paper_err", paper.Paper.median_err);
    ("ok_share", ok_share) ]

(* The end-to-end metrics of a server workload from its timed passes;
   paper_err comes from T1-T3 run at the same seed after timing. *)
let server_result ~seed ~tally ~sim (samples, peak_heap) =
  let notes = ref [ sim_note; unvalidated_note; cold_note ] in
  let paper = paper_metrics (Paper.run_tables ~seed) notes in
  let setup = List.map (fun s -> s.setup_s) samples in
  ( end_to_end_of ~samples ~peak_heap ~setup ~sim ~paper ~tally,
    tally,
    !notes,
    samples_json ~setup samples )

(* fork-exec: per pass, boot one kernel per E17 config (setup), then
   serve the same request stream on each (work). *)
let run_fork_exec ~seed ~seconds ~reference =
  let tally = tally () in
  let params = P.params Sv.Fork_exec P.fork_exec_requests in
  let pass () =
    let kernels, setup_s =
      timed_setup (fun () ->
          List.map
            (fun (label, policy) -> (label, P.boot ~seed policy))
            P.configs)
    in
    let runs, work_s, minor_words, major_words =
      work (fun () ->
          List.map (fun (label, k) -> serve_caught ~label ~params k) kernels)
    in
    List.iter
      (check_served tally ~reference ~seed ~workload:"fork-exec"
         ~requests:P.fork_exec_requests)
      runs;
    { setup_s; work_s; units = P.fork_exec_requests * List.length kernels;
      minor_words; major_words }
  in
  let timed = repeat ~seconds pass in
  server_result ~seed ~tally ~sim:(P.sim_fork_exec ~seed) timed

(* E17's optimized row as the sweep rendered it must match a direct run
   of the same configuration. *)
let check_e17_row tally ~seed entries =
  attempt tally 1;
  let direct =
    Sv.measure ~machine:P.machine ~policy:Config.optimized
      ~params:(P.params Sv.Fork_exec (Sv.boot_requests ()))
      ~seed ~label:"optimized" ()
  in
  let want = Report.fmt_ms (direct.Sv.busy_us /. 1000.) in
  let got =
    match List.assoc_opt "E17" entries with
    | None -> None
    | Some (t : Experiments.table) -> (
        let col =
          List.find_index (fun h -> h = "busy ms") t.Experiments.header
        in
        match
          ( col,
            List.find_opt
              (function "optimized" :: _ -> true | _ -> false)
              t.rows )
        with
        | Some c, Some row -> Some (List.nth row c)
        | _ -> None)
  in
  if got <> Some want then
    fail tally 1
      (Printf.sprintf "E17 optimized busy ms %s, direct run %s"
         (Option.value got ~default:"missing") want)

(* sweep: the whole registry through the Runner, rendered as the results
   document.  The experiments boot their own kernels, out of reach, so
   setup is timed on a stand-in: decoding the reference document and
   booting E17's four kernels (the fork-exec set-up).  Eight rounds run
   before every pass, so the median covers the whole run rather than
   only its first moments. *)
let setup_rounds_per_pass = 8

let run_sweep ~seed ~seconds ~jobs =
  let tally = tally () in
  let reference_doc = lazy (P.sweep_reference ()) in
  let setup_round () =
    snd
      (timed_setup (fun () ->
           let doc = P.read_file P.sweep_reference_path in
           (match Json.of_string doc with
           | Ok j -> ignore (Mmu_tricks.Baseline.doc_of_json j)
           | Error e -> failwith e);
           List.iter (fun (_, policy) -> ignore (P.boot ~seed policy)) P.configs))
  in
  let setup = ref [] in
  let first = ref None in
  let pass () =
    setup := List.init setup_rounds_per_pass (fun _ -> setup_round ()) @ !setup;
    let s, work_s, minor_words, major_words =
      work (fun () -> P.sweep ~jobs ~seed)
    in
    check_sweep tally ~seed ~reference_doc
      ~first_doc:(Option.map (fun s -> s.P.doc) !first) s;
    if !first = None then first := Some s;
    { setup_s = 0.; work_s; units = List.length s.P.outcomes; minor_words;
      major_words }
  in
  let samples, peak_heap = repeat ~seconds pass in
  let entries =
    match !first with Some s -> P.tables s.P.outcomes | None -> []
  in
  check_e17_row tally ~seed entries;
  let notes = ref [ unvalidated_note; cold_note ] in
  let paper = paper_metrics entries notes in
  let sim = P.sim_fork_exec ~seed in
  notes := sim_note :: !notes;
  if jobs > 1 then
    notes :=
      Printf.sprintf
        "minor/major_words_per_req and peak_heap_mb: the supervisor only \
         (unmarshalling outcomes, rendering); at --jobs %d the experiments \
         allocate in forked workers"
        jobs
      :: !notes;
  let setup = List.rev !setup in
  ( end_to_end_of ~samples ~peak_heap ~setup ~sim ~paper ~tally,
    tally,
    !notes,
    samples_json ~setup samples )

(* ----------------------------------------------------------- traced run *)

(* Per-request counts of Schema.perf_counts from summed Perf deltas. *)
let perf_metrics ~suffix ~requests spans =
  let f name =
    Stats.sum (List.map (fun s -> float_of_int (Spans.perf_field s name)) spans)
  in
  let req = float_of_int requests in
  let ratio a b = if b = 0. then 0. else a /. b in
  let tlb_lookups = f "itlb_lookups" +. f "dtlb_lookups" in
  let cache_accesses = f "icache_accesses" +. f "dcache_accesses" in
  List.map
    (fun (n, v) -> (n ^ suffix, v))
    [ ("kernel.syscalls_per_req", f "syscalls" /. req);
      ("kernel.faults_per_req", f "page_faults" /. req);
      ("kernel.switches_per_req", f "context_switches" /. req);
      ("kernel.flush_searches_per_req", f "flush_pte_searches" /. req);
      ("kernel.context_resets_per_req", f "flush_context_resets" /. req);
      ("idle.cycle_share", ratio (f "idle_cycles") (f "cycles"));
      ("idle.pages_cleared_per_req", f "pages_cleared_idle" /. req);
      ("idle.zombies_reclaimed_per_req", f "zombies_reclaimed" /. req);
      ("mmu.translations_per_req", tlb_lookups /. req);
      ("mmu.tlb_miss_ratio",
       ratio (f "itlb_misses" +. f "dtlb_misses") tlb_lookups);
      ("mmu.htab_hit_ratio", ratio (f "htab_hits") (f "htab_searches"));
      ("memsys.cache_accesses_per_req", cache_accesses /. req);
      ("memsys.cache_miss_ratio",
       ratio (f "icache_misses" +. f "dcache_misses") cache_accesses);
      ("memsys.mem_refs_per_req", f "mem_refs" /. req) ]

(* [overhead ~pairs a b]: how much longer [a] takes than [b], from
   medians of alternated runs (each returns the seconds it measured);
   the order flips every pair. *)
let overhead ~pairs a b =
  let xs = ref [] and ys = ref [] in
  for i = 1 to pairs do
    if i land 1 = 1 then begin
      xs := a () :: !xs;
      ys := b () :: !ys
    end
    else begin
      ys := b () :: !ys;
      xs := a () :: !xs
    end
  done;
  (Stats.median !xs /. Stats.median !ys) -. 1.

let traced ~seed ~jobs ~reference =
  let tally = tally () in
  let sp = Spans.create ~run_id:(Unix.getpid ()) () in
  let span ?perf name f = Spans.with_span sp ?perf name f in
  let metrics = ref [] in
  let add n v = metrics := (n, v) :: !metrics in
  let dur name =
    Stats.sum (List.map Spans.duration (Spans.named sp name))
  in
  add "host.calib_ns" (span "host.calib" Host.calib_ns);
  (* fork-exec: a full-length pass, then a quarter-length one *)
  let fx_pass ~tag requests =
    let params = P.params Sv.Fork_exec requests in
    span ("fork-exec." ^ tag) (fun () ->
        List.iter
          (fun (label, policy) ->
            let k = span "kernel.boot" (fun () -> P.boot ~seed policy) in
            let r =
              span ~perf:(Kernel.perf k)
                (Printf.sprintf "server.run.%s.%s" tag label)
                (fun () -> serve_caught ~label ~params k)
            in
            if tag = "full" then
              check_served tally ~reference ~seed ~workload:"fork-exec"
                ~requests r
            else
              check_served tally ~seed ~workload:("fork-exec-" ^ tag)
                ~requests r)
          P.configs)
  in
  let full = P.fork_exec_requests and quarter = P.fork_exec_requests / 4 in
  fx_pass ~tag:"full" full;
  fx_pass ~tag:"quarter" quarter;
  let run_spans tag =
    List.concat_map
      (fun c -> Spans.named sp (Printf.sprintf "server.run.%s.%s" tag c))
      Schema.server_configs
  in
  List.iter
    (fun c ->
      add ("server.us_per_req." ^ c)
        (dur ("server.run.full." ^ c) *. 1e6 /. float_of_int full))
    Schema.server_configs;
  let us_per_req tag n =
    Stats.sum (List.map Spans.duration (run_spans tag))
    /. float_of_int (n * List.length P.configs)
  in
  add "server.length_scaling"
    (us_per_req "full" full /. us_per_req "quarter" quarter);
  let fx_spans = run_spans "full" in
  let fx_requests = full * List.length P.configs in
  List.iter (fun (n, v) -> add n v)
    (perf_metrics ~suffix:"" ~requests:fx_requests fx_spans);
  let gc_sum f = Stats.sum (List.map (fun s -> f s.Spans.gc) fx_spans) in
  let kreq = float_of_int fx_requests /. 1000. in
  add "gc.minor_collections_per_kreq"
    (gc_sum (fun g -> float_of_int g.Spans.minor_collections) /. kreq);
  add "gc.major_collections_per_kreq"
    (gc_sum (fun g -> float_of_int g.Spans.major_collections) /. kreq);
  add "gc.promoted_words_per_req"
    (gc_sum (fun g -> g.Spans.promoted_words) /. float_of_int fx_requests);
  (* tracing overhead: the optimized config at the quarter length with
     and without spans *)
  let opt_params = P.params Sv.Fork_exec quarter in
  add "trace.overhead_share"
    (overhead ~pairs:10
       (fun () ->
         let k = span "kernel.boot" (fun () -> P.boot ~seed Config.optimized) in
         snd
           (Stats.time (fun () ->
                span ~perf:(Kernel.perf k) "trace.overhead.server.run"
                  (fun () -> P.serve ~label:"optimized" ~params:opt_params k))))
       (fun () ->
         let k = P.boot ~seed Config.optimized in
         snd
           (Stats.time (fun () ->
                P.serve ~label:"optimized" ~params:opt_params k))));
  (* shared-mm-observed *)
  let requests = P.shared_mm_requests in
  let sm_params = P.params Sv.Shared_mm requests in
  span "shared-mm-observed" (fun () ->
      let k = span "kernel.boot" (fun () -> P.boot ~seed Config.optimized) in
      let o = span "instruments.arm" (fun () -> P.arm ~requests k) in
      let r =
        span ~perf:(Kernel.perf k) "server.run.shared_mm" (fun () ->
            serve_caught ~label:P.label_observed ~params:sm_params k)
      in
      check_served tally ~reference ~seed ~workload:"shared-mm-observed"
        ~requests r;
      span "flight.finish" (fun () -> P.finish_recording o);
      ignore (span "export.span" (fun () -> P.export_spans o));
      add "export.span_s" (dur "export.span");
      add "recorder.samples"
        (float_of_int (Ppc.Recorder.total (Kernel.recorder k)));
      add "span.requests" (float_of_int (Ppc.Span.requests (Kernel.span k)));
      add "export.timeline_bytes" (float_of_int (Buffer.length o.P.timeline)));
  List.iter (fun (n, v) -> add n v)
    (perf_metrics ~suffix:Schema.shared_mm_suffix ~requests
       (Spans.named sp "server.run.shared_mm"));
  (* instruments: armed (serve, finish, export) against plain runs; both
     must simulate exactly the same thing *)
  let requests = P.shared_mm_requests * 2 / 5 in
  let sm_params = P.params Sv.Shared_mm requests in
  let timed_serve k finish =
    let r, dt =
      Stats.time (fun () ->
          let r = serve_caught ~label:P.label_observed ~params:sm_params k in
          finish ();
          r)
    in
    check_served tally ~seed
      ~workload:"shared-mm-overhead" ~requests r;
    dt
  in
  add "instruments.overhead_share"
    (overhead ~pairs:10
       (fun () ->
         let o = P.arm ~requests (P.boot ~seed Config.optimized) in
         timed_serve o.P.kernel (fun () ->
             P.finish_recording o;
             ignore (P.export_spans o)))
       (fun () -> timed_serve (P.boot ~seed Config.optimized) ignore));
  (* sweep: the Runner, the exporters, then every experiment in-process *)
  span "sweep" (fun () ->
      let outcomes =
        span "runner.run" (fun () -> Runner.run ~jobs ~seed Experiments.all)
      in
      let doc =
        span "export.doc" (fun () -> P.render_doc ~seed (P.tables outcomes))
      in
      check_sweep tally ~seed
        ~reference_doc:(lazy (P.sweep_reference ()))
        ~first_doc:None { P.outcomes; doc };
      add "export.doc_s" (dur "export.doc");
      add "export.doc_bytes" (float_of_int (String.length doc));
      let sc = Paper.score (P.tables outcomes) in
      add "paper.cells" (float_of_int sc.Paper.scored);
      add "paper.max_err" sc.Paper.max_err;
      List.iter
        (fun spec ->
          let id = spec.Experiments.id in
          span ("runner.unit." ^ id) (fun () ->
              ignore (spec.Experiments.run ~seed ()));
          add ("runner.unit_s." ^ id) (dur ("runner.unit." ^ id)))
        Experiments.registry);
  (* probes: host time per public call on a warmed kernel.  They run
     last: bechamel, under Perfstat.run, leaves the process's major GC
     no longer completing cycles, which would skew every GC number
     measured after it. *)
  span "probes" (fun () ->
      let micros =
        span "probe.perfstat" (fun () ->
            Perfstat.run ~quota_s:0.25 ~machine:P.machine ~seed ())
      in
      let micro name =
        match
          List.find_opt (fun r -> r.Perfstat.r_name = name) micros
        with
        | Some r -> r
        | None -> failwith ("perfstat has no micro " ^ name)
      in
      let per_translation r =
        r.Perfstat.r_ns_per_op /. float_of_int r.Perfstat.r_translations_per_op
      in
      add "mmu.warm_ns" (per_translation (micro "warm-access"));
      add "mmu.reload_ns" (per_translation (micro "tlb-miss-reload"));
      add "kernel.switch_ns" (micro "context-switch").Perfstat.r_ns_per_op;
      add "kernel.fork_exec_exit_us"
        (span "probe.fork_exec_exit" (fun () ->
             P.probe_fork_exec_exit_ns ~seed)
        /. 1000.);
      add "kernel.mmap_munmap_us"
        (span "probe.mmap_munmap" (fun () -> P.probe_mmap_munmap_ns ~seed)
        /. 1000.);
      add "idle.slice_ns"
        (span "probe.idle_slice" (fun () -> P.probe_idle_slice_ns ~seed));
      add "memsys.user_run_ns"
        (span "probe.user_run" (fun () -> P.probe_user_run_ns ~seed)));
  let units =
    List.map (fun id -> dur ("runner.unit." ^ id)) Schema.experiment_ids
  in
  let sweep_s = dur "runner.run" +. dur "export.doc" in
  add "runner.critical_unit_s" (Stats.maximum units);
  add "runner.parallel_efficiency"
    (Stats.sum units /. (float_of_int jobs *. sweep_s));
  add "kernel.boot_s"
    (Stats.median (List.map Spans.duration (Spans.named sp "kernel.boot")));
  (List.rev !metrics, tally, sp)

(* ------------------------------------------------------------- output *)

let ensure_out_dir () =
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let emit ~catalogue ~workload ~seed ~trace ~host ~calib_ns ~detail metrics
    tally lines =
  let declared = List.sort compare (List.map fst catalogue) in
  let got = List.sort compare (List.map fst metrics) in
  if declared <> got then begin
    Printf.eprintf "perfbench: metric set differs from %s\n"
      Schema.benchmark_path;
    exit 3
  end;
  let correct = tally.t_failed = 0 && tally.t_attempted > 0 in
  Printf.printf "perfbench %s seed=%d trace=%d\n" workload seed trace;
  List.iter
    (fun (n, v) ->
      Printf.printf "  %-40s %16.6g %s\n" n v (List.assoc n catalogue))
    metrics;
  Printf.printf "  %-40s %16.6g share\n" "failed_share"
    (float_of_int tally.t_failed /. float_of_int (max 1 tally.t_attempted));
  List.iter (fun w -> Printf.printf "  failure: %s\n" w) (List.rev tally.t_why);
  List.iter (fun l -> Printf.printf "  %s\n" l) lines;
  Printf.printf "# host %s calib_ns=%.4f\n" (Json.to_string ~compact:true host)
    calib_ns;
  let line =
    Json.Obj
      [ ("correct", Json.Bool correct);
        ("attempted", Json.Int (max 1 tally.t_attempted));
        ("failed", Json.Int tally.t_failed);
        ( "metrics",
          Json.Obj
            (List.map
               (fun (n, v) ->
                 ( n,
                   Json.Obj
                     [ ("value", Json.Float v);
                       ("unit", Json.String (List.assoc n catalogue)) ] ))
               metrics) ) ]
  in
  ensure_out_dir ();
  write_file
    (Printf.sprintf "%s/%s-seed%d-trace%d.json" out_dir workload seed trace)
    (Json.to_string
       (Json.Obj
          [ ("workload", Json.String workload);
            ("seed", Json.Int seed);
            ("host", host);
            ("host.calib_ns", Json.Float calib_ns);
            ("result", line);
            ("detail", detail) ])
    ^ "\n");
  print_endline (Json.to_string ~compact:true line)

(* ----------------------------------------------------------------- main *)

let () =
  let workload = ref "" and seed = ref P.default_seed and seconds = ref 10 in
  let trace = ref 0 and write_reference = ref false in
  let usage =
    "main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1] | \
     --write-reference"
  in
  Arg.parse
    [ ("--workload", Arg.Set_string workload,
       " " ^ String.concat "|" Schema.workloads);
      ("--seed", Arg.Set_int seed, " workload seed (default 42)");
      ("--seconds", Arg.Set_int seconds, " seconds to measure (default 10)");
      ("--trace", Arg.Set_int trace, " 1: the traced per-layer run");
      ("--write-reference", Arg.Set write_reference,
       " recompute " ^ P.reference_path) ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if Build_info.profile <> "release" then begin
    Printf.eprintf
      "perfbench: refusing to time a %S build (dev builds run about 2x \
       slower); build with --profile release\n"
      Build_info.profile;
    exit 2
  end;
  if !write_reference then begin
    write_file P.reference_path
      (Json.to_string (P.reference_to_json (P.compute_reference ())) ^ "\n");
    Printf.printf "wrote %s\n" P.reference_path;
    exit 0
  end;
  if not (List.mem !workload Schema.workloads) then begin
    Printf.eprintf "perfbench: unknown workload %S\n%s\n" !workload usage;
    exit 2
  end;
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  let catalogue =
    match Schema.load Schema.benchmark_path with
    | Ok c -> c
    | Error e ->
        Printf.eprintf "perfbench: %s: %s; run from the repository root\n"
          Schema.benchmark_path e;
        exit 2
  in
  if not (Sys.file_exists P.sweep_reference_path) then begin
    Printf.eprintf "perfbench: %s missing; run from the repository root\n"
      P.sweep_reference_path;
    exit 2
  end;
  let reference = P.load_reference () in
  (match reference with
  | Error e -> Printf.eprintf "perfbench: no server reference (%s)\n%!" e
  | Ok _ -> ());
  let jobs = Runner.default_jobs () in
  let host = Host.fingerprint ~jobs in
  let calib_ns = Host.calib_ns () in
  let seed = !seed and seconds = !seconds in
  if !trace = 1 then begin
    let metrics, tally, sp = traced ~seed ~jobs ~reference in
    ensure_out_dir ();
    write_file
      (Printf.sprintf "%s/%s-seed%d-spans.json" out_dir !workload seed)
      (Json.to_string ~compact:true (Spans.to_chrome sp) ^ "\n");
    let layers =
      List.map
        (fun (name, n, total, self) ->
          Printf.sprintf "span %-36s n=%-4d total %9.4fs self %9.4fs" name n
            total self)
        (Spans.summary sp)
    in
    emit ~catalogue:catalogue.Schema.per_layer ~workload:!workload ~seed ~trace:1 ~host
      ~calib_ns ~detail:(Spans.summary_json sp) metrics tally layers
  end
  else
    let metrics, tally, notes, passes =
      match !workload with
      | "fork-exec" -> run_fork_exec ~seed ~seconds ~reference
      | _ -> run_sweep ~seed ~seconds ~jobs
    in
    emit ~catalogue:catalogue.Schema.end_to_end ~workload:!workload ~seed ~trace:0 ~host
      ~calib_ns ~detail:passes metrics tally
      (List.map (fun n -> "note: " ^ n) notes)
