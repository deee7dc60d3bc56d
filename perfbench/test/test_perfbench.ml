(* Tests of the benchmark itself: its metric catalogue, the span
   self-time arithmetic, the paper_err cell parser and the stability of
   the server digests it checks runs against. *)

open Perfbench
module Json = Mmu_tricks.Json
module Experiments = Mmu_tricks.Experiments
module Config = Mmu_tricks.Config
module Sv = Workloads.Server

(* --------------------------------------------------------- metric names *)

let catalogue () =
  match Schema.load "../../BENCHMARK.json" with
  | Ok c -> c
  | Error e -> Alcotest.fail e

(* Schema.load itself checks names, units, uniqueness and the workload
   set; the names below are the ones the traced run builds from the
   lists that drive it. *)
let test_catalogue_loads () =
  let c = catalogue () in
  let declared n = List.mem_assoc n c.Schema.per_layer in
  List.iter
    (fun n -> Alcotest.(check bool) ("declares " ^ n) true (declared n))
    (List.map (fun c -> "server.us_per_req." ^ c) Schema.server_configs
    @ List.map (fun id -> "runner.unit_s." ^ id) Schema.experiment_ids
    @ [ "kernel.syscalls_per_req" ^ Schema.shared_mm_suffix ]);
  Alcotest.(check bool) "setup_s is end-to-end" true
    (List.mem_assoc "setup_s" c.Schema.end_to_end)

let test_name_format_rejects () =
  List.iter
    (fun n ->
      Alcotest.(check bool) ("rejects " ^ n) false (Schema.valid_name n))
    [ ""; "_lead"; ".lead"; "has space"; "slash/in"; String.make 65 'a' ];
  Alcotest.(check bool) "64 chars" true
    (Schema.valid_name (String.make 64 'a'));
  Alcotest.(check bool) "unit 1/s" true (Schema.valid_unit "1/s");
  Alcotest.(check bool) "unit too long" false
    (Schema.valid_unit (String.make 17 'u'))

let test_catalogue_rejects () =
  let load json =
    let path = Filename.temp_file "catalogue" ".json" in
    Out_channel.with_open_bin path (fun oc -> output_string oc json);
    let r = Schema.load path in
    Sys.remove path;
    r
  in
  let refused what json =
    Alcotest.(check bool) what true (Result.is_error (load json))
  in
  let doc ~workloads ~metrics =
    Printf.sprintf
      {|{"workloads": [%s], "end_to_end": [%s], "per_layer": []}|}
      (String.concat ", "
         (List.map (Printf.sprintf {|{"name": "%s", "why": "w"}|}) workloads))
      (String.concat ", "
         (List.map
            (fun (n, u) -> Printf.sprintf {|{"name": "%s", "unit": "%s"}|} n u)
            metrics))
  in
  let ws = Schema.workloads in
  refused "duplicate name"
    (doc ~workloads:ws ~metrics:[ ("setup_s", "s"); ("setup_s", "s") ]);
  refused "bad unit" (doc ~workloads:ws ~metrics:[ ("setup_s", "s e c") ]);
  refused "no setup_s" (doc ~workloads:ws ~metrics:[ ("x", "s") ]);
  refused "unknown workload"
    (doc ~workloads:("other" :: ws) ~metrics:[ ("setup_s", "s") ]);
  refused "empty file" "";
  refused "no lists" "{}";
  Alcotest.(check bool) "missing file" true
    (Result.is_error (Schema.load "no-such-catalogue.json"));
  Alcotest.(check bool) "minimal catalogue loads" true
    (Result.is_ok (load (doc ~workloads:ws ~metrics:[ ("setup_s", "s") ])))

(* ------------------------------------------------------------ self time *)

let close = Alcotest.float 1e-9

let test_covered () =
  Alcotest.check close "no children" 0. (Spans.covered ~lo:0. ~hi:10. []);
  Alcotest.check close "overlaps merge, overhang clipped" 6.
    (Spans.covered ~lo:0. ~hi:10. [ (1., 3.); (2., 5.); (8., 12.) ]);
  Alcotest.check close "outside ignored" 0.
    (Spans.covered ~lo:0. ~hi:10. [ (-3., -1.); (10., 11.) ]);
  Alcotest.check close "nested counted once" 4.
    (Spans.covered ~lo:0. ~hi:10. [ (2., 6.); (3., 4.) ])

let test_self_time () =
  Alcotest.check close "leaf" 10. (Spans.self_time ~start:0. ~stop:10. []);
  Alcotest.check close "minus children" 4.
    (Spans.self_time ~start:0. ~stop:10. [ (1., 3.); (2., 5.); (8., 12.) ])

let test_order_statistics () =
  Alcotest.check close "even count" 3.5 (Stats.slow_half_mean [ 4.; 1.; 3.; 2. ]);
  Alcotest.check close "odd count keeps the middle" 4.
    (Stats.slow_half_mean [ 5.; 1.; 3. ]);
  Alcotest.check close "one sample" 2. (Stats.slow_half_mean [ 2. ]);
  let xs = List.init 101 (fun i -> float_of_int (100 - i)) in
  Alcotest.check close "p99 of 0..100" 99. (Stats.quantile xs 0.99);
  Alcotest.check close "interpolated" 2.5 (Stats.quantile [ 4.; 1. ] 0.5);
  Alcotest.check close "clamped" 4. (Stats.quantile [ 4.; 1. ] 2.)

(* Spans on a clock that advances one unit per reading. *)
let test_span_tree () =
  let tick = ref 0. in
  let clock () =
    tick := !tick +. 1.;
    !tick
  in
  let t = Spans.create ~clock ~run_id:7 () in
  Spans.with_span t "root" (fun () ->
      Spans.with_span t "a" ignore;
      Spans.with_span t "b" (fun () -> Spans.with_span t "c" ignore));
  let one name =
    match Spans.named t name with [ s ] -> s | _ -> Alcotest.fail name
  in
  let root = one "root" and a = one "a" and b = one "b" and c = one "c" in
  Alcotest.(check int) "root is a root" (-1) root.Spans.parent;
  Alcotest.(check int) "a under root" root.Spans.id a.Spans.parent;
  Alcotest.(check int) "c under b" b.Spans.id c.Spans.parent;
  Alcotest.(check int) "run id" 7 c.Spans.run;
  (* clock readings: root 1..8, a 2..3, b 4..7, c 5..6 *)
  Alcotest.check close "root duration" 7. (Spans.duration root);
  Alcotest.check close "root self" 3. (Spans.self t root);
  Alcotest.check close "b self" 2. (Spans.self t b);
  Alcotest.check close "leaf self" 1. (Spans.self t c);
  let raised =
    try Spans.with_span t "boom" (fun () -> failwith "x")
    with Failure _ -> true
  in
  Alcotest.(check bool) "raised" true raised;
  Alcotest.(check int) "span kept on raise" 1
    (List.length (Spans.named t "boom"))

(* ------------------------------------------------------------ paper_err *)

let table header rows = { Experiments.title = "t"; header; rows; notes = [] }

let test_paper_cells () =
  let t =
    table [ "row"; "a us"; "b us" ]
      [ [ "r1 180MHz"; "2.00/1.00"; "1.00/1.00" ];
        [ "r2"; "3240/3240"; "n/a" ] ]
  in
  let cells = Paper.cells [ ("T1", t); ("E1", t) ] in
  Alcotest.(check int) "cells from T tables only" 3 (List.length cells);
  let c = List.hd cells in
  Alcotest.(check string) "row label" "r1 180MHz" c.Paper.row;
  Alcotest.(check string) "column" "a us" c.Paper.column;
  Alcotest.check close "measured" 2. c.Paper.measured;
  Alcotest.check close "paper" 1. c.Paper.paper;
  let sc = Paper.score [ ("T1", t) ] in
  Alcotest.(check int) "scored" 3 sc.Paper.scored;
  Alcotest.check close "median" 0. sc.Paper.median_err;
  Alcotest.check close "max" (Float.log 2.) sc.Paper.max_err

let test_paper_anchors () =
  let sc = Paper.score (Paper.run_tables ~seed:42) in
  Alcotest.(check int) "every anchor found once"
    (List.length Paper.anchors) sc.Paper.anchors_dropped;
  Alcotest.(check int) "60 cells in all" 60
    (sc.Paper.scored + sc.Paper.anchors_dropped);
  Alcotest.(check bool) "median error is small" true
    (sc.Paper.median_err > 0. && sc.Paper.median_err < 0.3)

(* ------------------------------------------------------------- digests *)

let serve ~seed ?(armed = false) model policy requests =
  let k = Passes.boot ~seed policy in
  let o = if armed then Some (Passes.arm ~requests k) else None in
  let s = Passes.serve ~label:"x" ~params:(Passes.params model requests) k in
  Option.iter Passes.finish_recording o;
  s

let test_digest_stable () =
  let a = serve ~seed:42 Sv.Fork_exec Config.optimized 40 in
  let b = serve ~seed:42 Sv.Fork_exec Config.optimized 40 in
  Alcotest.(check string) "same seed, same digest" a.Passes.digest
    b.Passes.digest;
  Alcotest.(check int) "all requests completed" 40 a.Passes.completed;
  let c = serve ~seed:43 Sv.Fork_exec Config.optimized 40 in
  Alcotest.(check bool) "another seed, another digest" true
    (a.Passes.digest <> c.Passes.digest);
  let d = serve ~seed:42 Sv.Fork_exec Config.baseline 40 in
  Alcotest.(check bool) "another config, another digest" true
    (a.Passes.digest <> d.Passes.digest)

let test_digest_armed () =
  let plain = serve ~seed:42 Sv.Shared_mm Config.optimized 60 in
  let armed = serve ~seed:42 ~armed:true Sv.Shared_mm Config.optimized 60 in
  Alcotest.(check string) "instruments observe only" plain.Passes.digest
    armed.Passes.digest

(* sim_p99_us reads the span recorder's per-request latencies; they must
   be the ones the server's latency histogram counted. *)
let test_span_latencies () =
  let requests = 60 in
  let k = Passes.boot ~seed:42 Config.optimized in
  let sp = Kernel_sim.Kernel.span k in
  Ppc.Span.enable ~requests sp;
  let s =
    Passes.serve ~label:"x" ~params:(Passes.params Sv.Fork_exec requests) k
  in
  let lat = ref [] in
  Ppc.Span.iter sp (fun q -> lat := q.Ppc.Span.q_latency :: !lat);
  let h = s.Passes.hist in
  Alcotest.(check int) "one per request" (Ppc.Hist.count h) (List.length !lat);
  Alcotest.(check int) "same sum" (Ppc.Hist.sum h) (List.fold_left ( + ) 0 !lat);
  Alcotest.(check int) "same max" (Ppc.Hist.max_value h)
    (List.fold_left max 0 !lat);
  let p99 = Passes.sim_p99_us sp *. float_of_int Passes.mhz in
  Alcotest.(check bool) "p99 below the max" true
    (p99 > 0. && p99 <= float_of_int (Ppc.Hist.max_value h))

let test_reference_round_trip () =
  let r =
    { Passes.r_seed = 42;
      r_fork_exec_requests = Passes.fork_exec_requests;
      r_shared_mm_requests = Passes.shared_mm_requests;
      r_digests = [ ("fork-exec/optimized", "abc") ] }
  in
  match Passes.reference_of_json (Passes.reference_to_json r) with
  | Error e -> Alcotest.fail e
  | Ok r' ->
      Alcotest.(check bool) "round trip" true (r = r');
      Alcotest.(check (option string)) "covers its seed" (Some "abc")
        (Passes.expected_digest (Ok r) ~seed:42 "fork-exec/optimized");
      Alcotest.(check (option string)) "not another seed" None
        (Passes.expected_digest (Ok r) ~seed:7 "fork-exec/optimized")

let () =
  Alcotest.run "perfbench"
    [ ( "metrics",
        [ Alcotest.test_case "BENCHMARK.json catalogue" `Quick
            test_catalogue_loads;
          Alcotest.test_case "name format rejects" `Quick
            test_name_format_rejects;
          Alcotest.test_case "bad catalogues refused" `Quick
            test_catalogue_rejects;
          Alcotest.test_case "order statistics" `Quick test_order_statistics ] );
      ( "spans",
        [ Alcotest.test_case "covered" `Quick test_covered;
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "span tree" `Quick test_span_tree ] );
      ( "paper_err",
        [ Alcotest.test_case "cell parser" `Quick test_paper_cells;
          Alcotest.test_case "anchors at seed 42" `Quick test_paper_anchors ] );
      ( "digests",
        [ Alcotest.test_case "stable in-process" `Quick test_digest_stable;
          Alcotest.test_case "armed equals plain" `Quick test_digest_armed;
          Alcotest.test_case "span latencies" `Quick test_span_latencies;
          Alcotest.test_case "reference round trip" `Quick
            test_reference_round_trip ] ) ]
