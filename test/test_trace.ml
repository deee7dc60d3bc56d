(* The observability layer: event ring, histograms, Perf timelines from
   the flight recorder, Chrome export, and the non-perturbation
   contract. *)
open Ppc
module Kernel = Kernel_sim.Kernel
module Policy = Kernel_sim.Policy
module Trace_export = Mmu_tricks.Trace
module Json = Mmu_tricks.Json

let mk_trace ?(perf = Perf.create ()) () = Trace.create ~perf

(* --- histograms ------------------------------------------------------- *)

let test_hist_bucket_boundaries () =
  List.iter
    (fun (v, expect) ->
      Alcotest.(check int)
        (Printf.sprintf "bucket of %d" v)
        expect (Hist.bucket_index v))
    [ (0, 0); (-5, 0); (1, 1); (2, 2); (3, 2); (4, 3); (7, 3); (8, 4);
      (15, 4); (16, 5); (1023, 10); (1024, 11) ];
  List.iter
    (fun (i, lo, hi) ->
      Alcotest.(check (pair int int))
        (Printf.sprintf "bounds of bucket %d" i)
        (lo, hi) (Hist.bucket_bounds i))
    [ (0, 0, 0); (1, 1, 1); (2, 2, 3); (3, 4, 7); (4, 8, 15) ]

let test_hist_observe () =
  let h = Hist.create () in
  Alcotest.(check bool) "starts empty" true (Hist.is_empty h);
  List.iter (Hist.observe h) [ 1; 2; 3; 4; 7; 8 ];
  Alcotest.(check int) "count" 6 (Hist.count h);
  Alcotest.(check int) "sum" 25 (Hist.sum h);
  Alcotest.(check int) "max" 8 (Hist.max_value h);
  Alcotest.(check (list (triple int int int)))
    "buckets hold [1,1] [2,3] [4,7] [8,15]"
    [ (1, 1, 1); (2, 3, 2); (4, 7, 2); (8, 15, 1) ]
    (Hist.buckets h)

let test_hist_percentile_merge () =
  let h = Hist.create () in
  for _ = 1 to 90 do Hist.observe h 1 done;
  for _ = 1 to 10 do Hist.observe h 100 done;
  Alcotest.(check int) "p50 in the small bucket" 1 (Hist.percentile h 0.5);
  Alcotest.(check int)
    "p99 reaches the top bucket's true max" 100 (Hist.percentile h 0.99);
  let other = Hist.create () in
  Hist.observe other 1000;
  Hist.merge_into ~into:h other;
  Alcotest.(check int) "merged count" 101 (Hist.count h);
  Alcotest.(check int) "merged max" 1000 (Hist.max_value h);
  Hist.reset h;
  Alcotest.(check bool) "reset empties" true (Hist.is_empty h)

(* --- the event ring --------------------------------------------------- *)

let test_disabled_emits_nothing () =
  let tr = mk_trace () in
  Trace.emit tr Trace.Bat_hit ~a:1 ~b:2;
  Trace.emit_htab_probe tr ~len:5 ~hit:true;
  Trace.emit_tlb_service tr ~ea:0x1000 ~cost:40;
  Trace.emit_context_switch tr ~pid:3 ~cost:500;
  Alcotest.(check int) "no events" 0 (Trace.total tr);
  Alcotest.(check int) "no kind counts" 0 (Trace.kind_count tr Trace.Bat_hit);
  Alcotest.(check bool)
    "no histogram observations" true
    (Hist.is_empty (Trace.hist_probe tr)
    && Hist.is_empty (Trace.hist_tlb_service tr)
    && Hist.is_empty (Trace.hist_ctxsw tr))

let test_ring_wraparound () =
  let perf = Perf.create () in
  let tr = mk_trace ~perf () in
  Trace.enable ~ring:8 tr;
  for i = 0 to 19 do
    perf.Perf.cycles <- i * 10;
    Trace.emit tr Trace.Bat_hit ~a:i ~b:0
  done;
  Alcotest.(check int) "capacity" 8 (Trace.capacity tr);
  Alcotest.(check int) "total counts every emit" 20 (Trace.total tr);
  Alcotest.(check int) "length capped at capacity" 8 (Trace.length tr);
  Alcotest.(check int) "dropped = total - length" 12 (Trace.dropped tr);
  Alcotest.(check int)
    "kind counts survive the wrap" 20
    (Trace.kind_count tr Trace.Bat_hit);
  let got = List.map (fun e -> e.Trace.e_a) (Trace.events tr) in
  Alcotest.(check (list int))
    "oldest-first, oldest 12 overwritten"
    [ 12; 13; 14; 15; 16; 17; 18; 19 ]
    got;
  let cycles = List.map (fun e -> e.Trace.e_cycle) (Trace.events tr) in
  Alcotest.(check int) "cycle stamps preserved" 120 (List.hd cycles)

let test_event_payloads () =
  let tr = mk_trace () in
  Trace.enable ~ring:16 tr;
  Trace.set_current_pid tr 7;
  Trace.emit tr Trace.Page_fault ~a:0xBEEF ~b:2;
  Trace.emit_for tr Trace.Idle_prezero ~pid:0 ~a:42 ~b:1;
  match Trace.events tr with
  | [ e1; e2 ] ->
      Alcotest.(check int) "emit uses current pid" 7 e1.Trace.e_pid;
      Alcotest.(check int) "payload a" 0xBEEF e1.Trace.e_a;
      Alcotest.(check int) "emit_for overrides pid" 0 e2.Trace.e_pid
  | l -> Alcotest.failf "expected 2 events, got %d" (List.length l)

(* A Perf timeline is the flight recorder's stream, sampled wherever the
   charge path crosses its deadline. *)
let test_sampling () =
  let m = Memsys.create ~machine:Machine.ppc604_185 ~perf:(Perf.create ()) in
  let r = Memsys.recorder m in
  Recorder.enable ~every:100 r;
  Alcotest.(check bool)
    "armed at cycles + every" true
    (r.Recorder.next_sample = 100);
  let timeline = ref [] in
  Recorder.set_on_sample r (fun _ s -> timeline := s :: !timeline);
  Memsys.stall m 120;
  Memsys.stall m 130;
  (match List.rev !timeline with
  | [ s1; s2 ] ->
      Alcotest.(check int) "first sample cycle" 120 s1.Recorder.s_cycle;
      Alcotest.(check int) "second sample cycle" 250 s2.Recorder.s_cycle;
      Alcotest.(check int) "snapshot captured" 250
        s2.Recorder.s_perf.Perf.cycles
  | l -> Alcotest.failf "expected 2 samples, got %d" (List.length l));
  Recorder.disable r;
  Memsys.stall m 1_000;
  Alcotest.(check bool)
    "disarmed sampler never fires" true
    (r.Recorder.next_sample = max_int && List.length !timeline = 2)

(* --- exporters -------------------------------------------------------- *)

let contains_phase ph doc =
  match Json.member "traceEvents" doc with
  | Some (Json.List events) ->
      List.exists
        (fun e -> Json.member "ph" e = Some (Json.String ph))
        events
  | _ -> false

let test_chrome_roundtrip () =
  let perf = Perf.create () in
  let tr = mk_trace ~perf () in
  let rcd = Recorder.create ~perf in
  Recorder.enable ~every:1 rcd;
  Trace.enable ~ring:64 tr;
  perf.Perf.cycles <- 1000;
  Trace.emit tr Trace.Dtlb_miss ~a:0x4000_0000 ~b:0;
  perf.Perf.cycles <- 1200;
  Trace.emit_tlb_service tr ~ea:0x4000_0000 ~cost:200;
  Trace.emit_context_switch tr ~pid:2 ~cost:800;
  Recorder.take_sample rcd;
  perf.Perf.cycles <- 2400;
  perf.Perf.dtlb_misses <- 5;
  Recorder.take_sample rcd;
  let samples = Recorder.samples rcd in
  Alcotest.(check bool) "no samples, no counter tracks" false
    (contains_phase "C" (Trace_export.to_chrome ~mhz:100 ~name:"test" tr));
  let doc = Trace_export.to_chrome ~mhz:100 ~name:"test" ~samples tr in
  let text = Json.to_string ~compact:true doc in
  match Json.of_string text with
  | Error e -> Alcotest.failf "emitted chrome JSON does not parse: %s" e
  | Ok parsed -> (
      match Json.member "traceEvents" parsed with
      | Some (Json.List events) ->
          Alcotest.(check bool)
            "has metadata, events, and counter samples" true
            (List.length events > 4);
          let phases =
            List.filter_map
              (fun e -> Option.bind (Json.member "ph" e) Json.to_string_opt)
              events
          in
          Alcotest.(check bool) "has instants" true (List.mem "i" phases);
          Alcotest.(check bool) "has spans" true (List.mem "X" phases);
          Alcotest.(check bool) "has counters" true (List.mem "C" phases)
      | _ -> Alcotest.fail "traceEvents missing or not a list")

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec at i = i + n <= h && (String.sub hay i n = needle || at (i + 1)) in
  n = 0 || at 0

let test_summary_text () =
  let tr = mk_trace () in
  Trace.enable ~ring:16 tr;
  Trace.emit_htab_probe tr ~len:3 ~hit:true;
  let s = Trace_export.summary tr in
  Alcotest.(check bool) "mentions the probe event" true
    (contains ~needle:"htab_probe" s);
  Alcotest.(check bool) "mentions the probe histogram" true
    (contains ~needle:"probe length" s)

(* --- non-perturbation -------------------------------------------------
   The acceptance contract: a traced run produces exactly the counters of
   an untraced run at the same seed. *)

let drive k =
  let t1 = Kernel.spawn k () in
  Kernel.switch_to k t1;
  Kernel.user_run k ~instrs:20_000;
  let data = Kernel_sim.Mm.user_text_base + (16 lsl Addr.page_shift) in
  for i = 0 to 15 do
    Kernel.touch k Mmu.Store (data + (i lsl Addr.page_shift))
  done;
  let t2 = Kernel.sys_fork k in
  Kernel.switch_to k t2;
  Kernel.user_run k ~instrs:10_000;
  Kernel.touch k Mmu.Store data;
  Kernel.sys_exit k;
  Kernel.switch_to k t1;
  Kernel.idle_for k ~cycles:30_000;
  let arena = Kernel.sys_mmap k ~pages:32 ~writable:true in
  for i = 0 to 31 do
    Kernel.touch k Mmu.Store (arena + (i lsl Addr.page_shift))
  done;
  Kernel.sys_munmap k ~ea:arena ~pages:32

let test_no_perturbation () =
  let boot () =
    Kernel.boot ~machine:Machine.ppc604_185 ~policy:Policy.optimized ~seed:7 ()
  in
  let plain = boot () in
  drive plain;
  let traced = boot () in
  let tr = Kernel.trace traced in
  Trace.enable ~ring:1024 tr;
  Recorder.enable ~every:50_000 (Kernel.recorder traced);
  drive traced;
  Alcotest.(check bool) "trace recorded something" true (Trace.total tr > 0);
  Alcotest.(check bool) "timeline sampled" true
    (Recorder.total (Kernel.recorder traced) > 0);
  List.iter2
    (fun (name, a) (_, b) ->
      Alcotest.(check int) ("counter " ^ name ^ " unperturbed") a b)
    (Perf.fields (Kernel.perf plain))
    (Perf.fields (Kernel.perf traced))

let suite =
  [ Alcotest.test_case "hist bucket boundaries" `Quick
      test_hist_bucket_boundaries;
    Alcotest.test_case "hist observe/buckets" `Quick test_hist_observe;
    Alcotest.test_case "hist percentile/merge/reset" `Quick
      test_hist_percentile_merge;
    Alcotest.test_case "disabled path emits nothing" `Quick
      test_disabled_emits_nothing;
    Alcotest.test_case "ring wraparound" `Quick test_ring_wraparound;
    Alcotest.test_case "event payloads and pids" `Quick test_event_payloads;
    Alcotest.test_case "timeline sampling" `Quick test_sampling;
    Alcotest.test_case "chrome JSON round-trips" `Quick test_chrome_roundtrip;
    Alcotest.test_case "text summary" `Quick test_summary_text;
    Alcotest.test_case "tracing does not perturb counters" `Quick
      test_no_perturbation ]
