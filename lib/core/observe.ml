(* Observed runs: arm the process-wide instrument defaults, drain every
   registry in whatever process hosted each experiment, ship one JSON
   payload per experiment over the Runner's result pipe, disarm.  One
   path serves every instrument at any job count. *)

module Kernel = Kernel_sim.Kernel

module Server = Workloads.Server

type spec = {
  trace : bool;
  profile : bool;
  spans : bool;
  shadow : bool;
  cpus : int;
  record : (int * Flight.rule list) option;
  requests : int option;
}

let nothing =
  { trace = false;
    profile = false;
    spans = false;
    shadow = false;
    cpus = 1;
    record = None;
    requests = None }

type shadow_verdict = { checks : int; divergences : int; reports : string list }

type result = {
  id : string;
  outcome : Runner.outcome;
  observability : Json.t option;
  shadow : shadow_verdict;
  flight : string list;
}

(* The SMP counter object for one experiment: every kernel the run
   booted, aggregated — the six shootdown/steal counters plus per-CPU
   TLB-miss slices.  Single-CPU boots register too (set_smp_register),
   so a cpus=1 document simply shows "cpus": 1 and zeros. *)
let smp_json kernels =
  let cpus = List.fold_left (fun a k -> max a (Kernel.cpus k)) 1 kernels in
  let sum f = List.fold_left (fun a k -> a + f (Kernel.perf k)) 0 kernels in
  let per_cpu f =
    List.init cpus (fun cpu ->
        Json.Int
          (List.fold_left
             (fun a k ->
               if cpu < Kernel.cpus k then a + f (Kernel.mmu k) ~cpu else a)
             0 kernels))
  in
  Json.Obj
    [ ("cpus", Json.Int cpus);
      ("kernels", Json.Int (List.length kernels));
      ("ipis_sent", Json.Int (sum (fun p -> p.Ppc.Perf.ipis_sent)));
      ("tlb_shootdowns", Json.Int (sum (fun p -> p.Ppc.Perf.tlb_shootdowns)));
      ( "shootdowns_deferred",
        Json.Int (sum (fun p -> p.Ppc.Perf.shootdowns_deferred)) );
      ( "remote_tlb_invalidates",
        Json.Int (sum (fun p -> p.Ppc.Perf.remote_tlb_invalidates)) );
      ("work_steals", Json.Int (sum (fun p -> p.Ppc.Perf.work_steals)));
      ("vsid_wraps", Json.Int (sum (fun p -> p.Ppc.Perf.vsid_wraps)));
      ("per_cpu_itlb_misses", Json.List (per_cpu Ppc.Mmu.cpu_itlb_misses));
      ("per_cpu_dtlb_misses", Json.List (per_cpu Ppc.Mmu.cpu_dtlb_misses)) ]

(* Drain every registry once, in the hosting process, right after an
   experiment: {"observability": {trace fields, profile, spans, smp},
   "shadow": {...}, "flight": [lines]}, each key only when it has
   content.  Registries are drained even when their instrument is off,
   so nothing leaks into the next experiment. *)
let collect spec ~flight_take _id =
  let traces = Ppc.Trace.drain_registered () in
  let profiles = Ppc.Profile.drain_registered () in
  let spans =
    List.filter Span_export.interesting (Ppc.Span.drain_registered ())
  in
  let checkers = Ppc.Shadow.drain_registered () in
  let kernels = Kernel.drain_smp_registered () in
  let obs =
    (if spec.trace then Trace.observability_fields traces else [])
    @ (if spec.profile then [ ("profile", Profile_export.to_json profiles) ]
       else [])
    @ (if spans = [] then [] else [ ("spans", Span_export.to_json spans) ])
    @ if kernels = [] then [] else [ ("smp", smp_json kernels) ]
  in
  let shadow () =
    let sum f = List.fold_left (fun a c -> a + f c) 0 checkers in
    Json.Obj
      [ ("checks", Json.Int (sum Ppc.Shadow.checks));
        ("divergences", Json.Int (sum Ppc.Shadow.total_divergences));
        ( "reports",
          Json.List
            (List.concat_map
               (fun c ->
                 List.map
                   (fun d -> Json.String (Ppc.Shadow.report d))
                   (Ppc.Shadow.divergences c))
               checkers) ) ]
  in
  let flight = flight_take () in
  let fields =
    (if obs = [] then [] else [ ("observability", Json.Obj obs) ])
    @ (if checkers = [] then [] else [ ("shadow", shadow ()) ])
    @
    if flight = [] then []
    else [ ("flight", Json.List (List.map (fun l -> Json.String l) flight)) ]
  in
  if fields = [] then None else Some (Json.Obj fields)

let strings j =
  match j with
  | Some (Json.List l) -> List.filter_map Json.to_string_opt l
  | _ -> []

let shadow_of payload =
  let j = Option.bind payload (Json.member "shadow") in
  let field k = Option.bind j (Json.member k) in
  let int k =
    Option.value ~default:0 (Option.bind (field k) Json.to_int_opt)
  in
  { checks = int "checks";
    divergences = int "divergences";
    reports = strings (field "reports") }

(* Whatever was registered before the run (kernels booted by earlier
   callers in this process) or left behind by an aborted one: dropped,
   so a serial run's first experiment starts as clean as a worker's. *)
let drop_registered () =
  ignore (collect nothing ~flight_take:(fun () -> []) "" : Json.t option);
  ignore (Ppc.Recorder.drain_registered () : Ppc.Recorder.t list)

let arm spec =
  drop_registered ();
  if spec.trace then Ppc.Trace.set_boot_defaults ~enabled:true ();
  if spec.profile then Ppc.Profile.set_boot_defaults ~enabled:true ();
  if spec.spans then Ppc.Span.set_boot_defaults ~enabled:true ();
  if spec.shadow then Ppc.Shadow.set_boot_defaults ~enabled:true ();
  Kernel.set_boot_cpus spec.cpus;
  Kernel.set_smp_register true;
  Option.iter Server.set_boot_requests spec.requests

let disarm ~cpus ~requests =
  Ppc.Trace.set_boot_defaults ~enabled:false ();
  Ppc.Profile.set_boot_defaults ~enabled:false ();
  Ppc.Span.set_boot_defaults ~enabled:false ();
  Ppc.Shadow.set_boot_defaults ~enabled:false ();
  Flight.disarm ();
  Kernel.set_boot_cpus cpus;
  Kernel.set_smp_register false;
  Server.set_boot_requests requests;
  drop_registered ()

let run ?jobs ?seed ?timeout ?retries spec selected =
  (* each hosting process buffers its own timeline lines; the hook
     ships them with the result and the supervisor concatenates *)
  let buf = ref [] in
  let sink =
    Option.map
      (fun (every, rules) ->
        let write l = buf := l :: !buf in
        (every, Flight.sink ~rules ~write ()))
      spec.record
  in
  let flight_take () =
    match sink with
    | None -> []
    | Some (_, sk) ->
        Flight.drain_into sk;
        let lines = List.rev !buf in
        buf := [];
        lines
  in
  let saved_hook = !Runner.collect_hook in
  let saved_cpus = Kernel.boot_cpus () in
  let saved_requests = Server.boot_requests () in
  Fun.protect
    ~finally:(fun () ->
      disarm ~cpus:saved_cpus ~requests:saved_requests;
      Runner.collect_hook := saved_hook)
  @@ fun () ->
  arm spec;
  Option.iter (fun (every, sk) -> Flight.arm ~every sk) sink;
  Runner.collect_hook := collect spec ~flight_take;
  let rc = Runner.run_collect ?jobs ?seed ?timeout ?retries selected in
  let flights =
    Flight.renumber_runs
      (List.map
         (fun (_, _, p) -> strings (Option.bind p (Json.member "flight")))
         rc)
  in
  List.map2
    (fun (id, outcome, payload) flight ->
      { id;
        outcome;
        observability = Option.bind payload (Json.member "observability");
        shadow = shadow_of payload;
        flight })
    rc flights
