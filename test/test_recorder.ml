(* The flight recorder core — the simulator's one cycle-cadence
   sampler: one-int-compare disabled cost, fixed-cadence sampling driven
   by the charge path's deadline, deterministic decimation under the
   retention cap that never coarsens the stream, in-place gauge
   replacement, the streaming hook, arming from the [Kernel] instruments
   default — and the free-ness contract (an armed run's counters and
   tables are byte-identical to a bare run at the same seed). *)
open Ppc
module Experiments = Mmu_tricks.Experiments

let mk () =
  let perf = Perf.create () in
  (perf, Recorder.create ~perf)

(* A run that misses the TLBs over and over: an arena larger than both
   TLBs swept several times, plus a fork/exit for flush traffic. *)
let reload_heavy k =
  let module Kernel = Kernel_sim.Kernel in
  let t1 = Kernel.spawn k () in
  Kernel.switch_to k t1;
  let arena = Kernel.sys_mmap k ~pages:192 ~writable:true in
  for round = 0 to 3 do
    for i = 0 to 191 do
      Kernel.touch k
        (if round = 0 then Mmu.Store else Mmu.Load)
        (arena + (i lsl Addr.page_shift))
    done;
    Kernel.user_run k ~instrs:5_000
  done;
  let t2 = Kernel.sys_fork k in
  Kernel.switch_to k t2;
  Kernel.touch k Mmu.Store arena;
  Kernel.sys_exit k;
  Kernel.switch_to k t1;
  Kernel.sys_munmap k ~ea:arena ~pages:192

(* --- lifecycle --------------------------------------------------------- *)

let test_disabled_by_default () =
  let _, r = mk () in
  Alcotest.(check bool) "disabled" false (Recorder.enabled r);
  Alcotest.(check int) "no samples" 0 (Recorder.length r);
  (* [next_sample] is the Memsys.charge fast-path read: must be max_int *)
  Alcotest.(check int) "sentinel" max_int r.Recorder.next_sample

let test_enable_validates () =
  let _, r = mk () in
  Alcotest.check_raises "every < 1"
    (Invalid_argument "Recorder.enable: every must be >= 1") (fun () ->
      Recorder.enable ~every:0 r);
  Alcotest.check_raises "cap < 2"
    (Invalid_argument "Recorder.enable: cap must be >= 2") (fun () ->
      Recorder.enable ~cap:1 r)

let test_cadence_scheduling () =
  let perf, r = mk () in
  perf.Perf.cycles <- 250;
  Recorder.enable ~every:100 ~cap:8 r;
  Alcotest.(check bool) "enabled" true (Recorder.enabled r);
  Alcotest.(check int) "first sample at cycles + every" 350
    r.Recorder.next_sample;
  perf.Perf.cycles <- 410;
  Recorder.take_sample r;
  Alcotest.(check int) "rescheduled from the actual cycle" 510
    r.Recorder.next_sample;
  Alcotest.(check int) "one retained" 1 (Recorder.length r);
  Alcotest.(check int) "snapshot carries the cycle" 410
    (Recorder.sample r 0).Recorder.s_cycle;
  Recorder.disable r;
  Alcotest.(check int) "disable restores the sentinel" max_int
    r.Recorder.next_sample

let test_snapshot_immutable () =
  let perf, r = mk () in
  Recorder.enable ~every:10 ~cap:4 r;
  perf.Perf.cycles <- 10;
  perf.Perf.itlb_misses <- 3;
  Recorder.take_sample r;
  perf.Perf.itlb_misses <- 99;
  Alcotest.(check int) "sample is a snapshot, not the live record" 3
    (Recorder.sample r 0).Recorder.s_perf.Perf.itlb_misses

(* --- decimation -------------------------------------------------------- *)

(* Advance the clock the way [Memsys.charge] does: [step]-cycle charges,
   each followed by the one compare against the recorder's deadline. *)
let drive perf r ~step ~until =
  while perf.Perf.cycles < until do
    perf.Perf.cycles <- perf.Perf.cycles + step;
    if perf.Perf.cycles >= r.Recorder.next_sample then Recorder.take_sample r
  done

let test_decimation () =
  let perf, r = mk () in
  Recorder.enable ~every:10 ~cap:4 r;
  drive perf r ~step:10 ~until:90;
  (* cap 4: the retained stream halves (keep every other sample, double
     the retention stride) each time it fills — 9 samples decimate
     twice, and sampling never leaves the base cadence *)
  Alcotest.(check int) "total counts every sample" 9 (Recorder.total r);
  Alcotest.(check int) "retained under cap" 3 (Recorder.length r);
  Alcotest.(check (list int)) "kept samples are deterministic"
    [ 10; 50; 90 ]
    (List.map (fun s -> s.Recorder.s_cycle) (Recorder.samples r));
  Alcotest.(check int) "retained cadence doubled per decimation" 40
    (Recorder.every r);
  Alcotest.(check int) "next sample at the base cadence" 100
    r.Recorder.next_sample

let test_streaming_hook_sees_everything () =
  let perf, r = mk () in
  Recorder.enable ~every:10 ~cap:4 r;
  let streamed = ref [] in
  Recorder.set_on_sample r (fun rcd s ->
      Alcotest.(check int) "hook gets the owning recorder"
        (Recorder.run_id r) (Recorder.run_id rcd);
      streamed := s.Recorder.s_cycle :: !streamed);
  drive perf r ~step:10 ~until:200;
  (* decimation coarsens retention, never the stream *)
  Alcotest.(check (list int)) "full stream at original cadence"
    (List.init 20 (fun i -> (i + 1) * 10))
    (List.rev !streamed)

(* The same seeded kernel run streamed under a tiny retention cap and
   under the default one: decimation must not move a single sample. *)
let test_stream_independent_of_cap () =
  let stream cap =
    let k =
      Kernel_sim.Kernel.boot ~machine:Machine.ppc604_185
        ~policy:Kernel_sim.Policy.optimized ~seed:11 ()
    in
    let r = Kernel_sim.Kernel.recorder k in
    Recorder.enable ~every:5_000 ?cap r;
    let out = ref [] in
    Recorder.set_on_sample r (fun _ s -> out := s :: !out);
    reload_heavy k;
    (List.rev !out, Recorder.length r)
  in
  let small, retained = stream (Some 4) in
  let full, _ = stream None in
  Alcotest.(check bool) "stream decimated under cap 4" true
    (List.length small > 8 && retained <= 4);
  Alcotest.(check bool) "cap 4 stream equals default-cap stream" true
    (small = full)

(* --- gauge sources ----------------------------------------------------- *)

let test_gauge_replace_in_place () =
  let perf, r = mk () in
  Recorder.add_source r ~name:"a" (fun () -> [| 1 |]);
  Recorder.add_source r ~name:"b" (fun () -> [| 2 |]);
  Recorder.add_source r ~name:"a" (fun () -> [| 111 |]);
  Alcotest.(check (list string)) "order undisturbed" [ "a"; "b" ]
    (Recorder.source_names r);
  Recorder.enable ~every:10 ~cap:4 r;
  perf.Perf.cycles <- 10;
  Recorder.take_sample r;
  Alcotest.(check bool) "replacement source is live" true
    ((Recorder.sample r 0).Recorder.s_gauges = [ ("a", [| 111 |]); ("b", [| 2 |]) ])

let test_sources_lazy () =
  let _, r = mk () in
  let calls = ref 0 in
  Recorder.add_source r ~name:"expensive" (fun () ->
      incr calls;
      [| 0 |]);
  Alcotest.(check int) "never called until a sample fires" 0 !calls

(* --- the charge path ---------------------------------------------------- *)

let test_sampling_iff_armed () =
  let m = Memsys.create ~machine:Machine.ppc604_185 ~perf:(Perf.create ()) in
  let r = Memsys.recorder m in
  Alcotest.(check bool) "unarmed: not sampling" false (Memsys.sampling m);
  Recorder.enable ~every:100 r;
  Alcotest.(check bool) "armed: sampling" true (Memsys.sampling m);
  Memsys.stall m 120;
  Alcotest.(check int) "a charge past the deadline samples" 1
    (Recorder.total r);
  Recorder.disable r;
  Alcotest.(check bool) "disarmed: not sampling" false (Memsys.sampling m);
  Memsys.stall m 1_000;
  Alcotest.(check int) "no samples while disarmed" 1 (Recorder.total r)

(* While armed, the MMU's fused reload charges fall back to the
   charge-by-charge sequence; the counters must not notice. *)
let test_armed_reload_counters_unchanged () =
  let run armed =
    let k =
      Kernel_sim.Kernel.boot ~machine:Machine.ppc604_185
        ~policy:Kernel_sim.Policy.optimized ~seed:5 ()
    in
    if armed then
      Recorder.enable ~every:997 (Kernel_sim.Kernel.recorder k);
    reload_heavy k;
    let p = Kernel_sim.Kernel.perf k in
    (Perf.fields p, Recorder.total (Kernel_sim.Kernel.recorder k))
  in
  let bare, _ = run false and armed, samples = run true in
  Alcotest.(check bool) "reloads happened" true
    (List.assoc "itlb_misses" bare + List.assoc "dtlb_misses" bare > 200);
  Alcotest.(check bool) "armed run sampled" true (samples > 0);
  List.iter2
    (fun (name, a) (_, b) ->
      Alcotest.(check int) ("counter " ^ name ^ " unperturbed") a b)
    bare armed

(* --- boot registry ----------------------------------------------------- *)

let test_boot_registry () =
  let module Kernel = Kernel_sim.Kernel in
  let attached = ref [] in
  let armed =
    { Kernel.no_instruments with
      record = Some (77, fun r -> attached := Recorder.run_id r :: !attached)
    }
  in
  let boot () =
    Kernel.boot ~machine:Machine.ppc604_185
      ~policy:Kernel_sim.Policy.optimized ~seed:7 ()
  in
  let r1, r2, drained, again =
    Kernel.with_instruments (Some armed) (fun () ->
        Alcotest.(check bool) "armed" true
          (Option.is_some (Kernel.instruments ()));
        let r1 = Kernel.recorder (boot ()) in
        let r2 = Kernel.recorder (boot ()) in
        let drained = Kernel.drain_booted () in
        (r1, r2, drained, Kernel.drain_booted ()))
  in
  Alcotest.(check bool) "disarmed" true
    (Option.is_none (Kernel.instruments ()));
  let r3 = Kernel.recorder (boot ()) in
  Alcotest.(check bool) "boot-armed recorders start enabled" true
    (Recorder.enabled r1 && Recorder.enabled r2);
  Alcotest.(check int) "boot cadence applied" 77 (Recorder.every r1);
  Alcotest.(check bool) "post-disarm recorders start disabled" false
    (Recorder.enabled r3);
  Alcotest.(check (list int)) "attach hook saw both, in creation order"
    [ Recorder.run_id r1; Recorder.run_id r2 ]
    (List.rev !attached);
  let run_ids = List.map (fun k -> Recorder.run_id (Kernel.recorder k)) in
  Alcotest.(check (list int)) "booted list drains both, in boot order"
    [ Recorder.run_id r1; Recorder.run_id r2 ]
    (run_ids drained);
  Alcotest.(check (list int)) "drain empties the list" [] (run_ids again)

let test_run_ids_unique () =
  let _, a = mk () in
  let _, b = mk () in
  Alcotest.(check bool) "process-unique" true
    (Recorder.run_id a <> Recorder.run_id b)

(* --- observation-only -------------------------------------------------- *)

let test_recording_is_free () =
  (* the byte-identity contract: an armed run's tables equal a bare
     run's at the same seed — sampling charges no cycles and draws no
     RNG *)
  let run () = (Option.get (Experiments.find "E13")).Experiments.run ~seed:7 () in
  let bare = run () in
  let module Kernel = Kernel_sim.Kernel in
  let recorded, drained =
    Kernel.with_instruments
      (Some { Kernel.no_instruments with record = Some (50_000, ignore) })
      (fun () ->
        let t = run () in
        (t, List.map Kernel.recorder (Kernel.drain_booted ())))
  in
  Alcotest.(check bool) "tables byte-identical under recording" true
    (bare = recorded);
  Alcotest.(check bool) "and the run really was recorded" true
    (drained <> [] && List.exists (fun r -> Recorder.total r > 0) drained)

let suite =
  [ Alcotest.test_case "disabled by default" `Quick test_disabled_by_default;
    Alcotest.test_case "enable validates" `Quick test_enable_validates;
    Alcotest.test_case "cadence scheduling" `Quick test_cadence_scheduling;
    Alcotest.test_case "snapshot immutable" `Quick test_snapshot_immutable;
    Alcotest.test_case "decimation" `Quick test_decimation;
    Alcotest.test_case "streaming hook sees everything" `Quick
      test_streaming_hook_sees_everything;
    Alcotest.test_case "stream independent of cap" `Quick
      test_stream_independent_of_cap;
    Alcotest.test_case "memsys samples iff armed" `Quick
      test_sampling_iff_armed;
    Alcotest.test_case "armed reload counters unchanged" `Quick
      test_armed_reload_counters_unchanged;
    Alcotest.test_case "gauge replace in place" `Quick
      test_gauge_replace_in_place;
    Alcotest.test_case "sources lazy until armed" `Quick test_sources_lazy;
    Alcotest.test_case "boot registry" `Quick test_boot_registry;
    Alcotest.test_case "run ids unique" `Quick test_run_ids_unique;
    Alcotest.test_case "recording is free (E13)" `Slow
      test_recording_is_free ]
