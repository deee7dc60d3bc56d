(* Observed runs: arm the process-wide [Kernel] instruments default,
   drain the kernels each experiment booted in whatever process hosted
   it, ship one JSON payload per experiment over the Runner's result
   pipe, restore the caller's default.  One path serves every
   instrument at any job count. *)

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
   TLB-miss slices.  Single-CPU kernels count too, so a cpus=1 document
   simply shows "cpus": 1 and zeros. *)
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

(* Drain the booted kernels once, in the hosting process, right after
   an experiment, and read each armed instrument off them:
   {"observability": {trace fields, profile, spans, smp}, "shadow":
   {...}, "flight": [lines]}, each key only when it has content. *)
let collect spec ~flight _id =
  let kernels = Kernel.drain_booted () in
  let each armed f = if armed then List.map f kernels else [] in
  let spans =
    List.filter Span_export.interesting (each spec.spans Kernel.span)
  in
  let checkers = List.filter_map Fun.id (each spec.shadow Kernel.shadow) in
  let obs =
    (if spec.trace then
       Trace.observability_fields (List.map Kernel.trace kernels)
     else [])
    @ (if spec.profile then
         [ ("profile", Profile_export.to_json (List.map Kernel.profile kernels))
         ]
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
  let flight = flight kernels in
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
  let flight kernels =
    match sink with
    | None -> []
    | Some (_, sk) ->
        List.iter (fun k -> Flight.finish sk (Kernel.recorder k)) kernels;
        let lines = List.rev !buf in
        buf := [];
        lines
  in
  let instruments =
    { Kernel.trace = spec.trace;
      profile = spec.profile;
      spans = spec.spans;
      shadow = spec.shadow;
      record = Option.map (fun (every, sk) -> (every, Flight.attach sk)) sink;
      cpus = spec.cpus }
  in
  let saved_hook = !Runner.collect_hook in
  let saved_requests = Server.boot_requests () in
  Fun.protect
    ~finally:(fun () ->
      Server.set_boot_requests saved_requests;
      Runner.collect_hook := saved_hook)
  @@ fun () ->
  Kernel.with_instruments (Some instruments) @@ fun () ->
  Option.iter Server.set_boot_requests spec.requests;
  Runner.collect_hook := collect spec ~flight;
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
