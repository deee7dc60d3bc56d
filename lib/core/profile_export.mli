(** Exporters for {!Ppc.Profile}: folded stacks, attribution JSON, and
    a text heatmap.

    Pure functions of finished profilers.  A run can boot several
    kernels (E1 boots one per policy), so every entry point takes a
    list, in boot order: miss accounts and hot pages are merged across
    kernels, while the TLB census and htab occupancy map — descriptions
    of one machine's structures — stay per-kernel.

    Occupancy over time comes from the flight recorder: a caller that
    streamed its one kernel's {!Ppc.Recorder} samples passes them as
    [samples] alongside that kernel's profiler, and the htab rendering
    gains the series read off its ["htab"] gauge. *)

val folded : Ppc.Profile.t list -> string
(** Flamegraph-collapsed stacks, one line per (PID, segment, kind)
    account: [pid_3;seg_0x2;dtlb 412170].  The weight is attributed
    reload cycles; feed to flamegraph.pl, inferno or speedscope.
    Deterministic order (by pid, segment, kind). *)

val to_json :
  ?top:int -> ?samples:Ppc.Recorder.sample list -> Ppc.Profile.t list ->
  Json.t
(** The attribution document embedded per experiment in results JSON
    (under [observability.profile]): merged accounts, the [top]
    (default 20) hot pages per kind, one TLB census object per kernel
    that recorded one, and one htab occupancy map (end-of-run snapshot
    with chain histogram and zombie fraction) per kernel with an htab.
    With [samples], the map also carries [peak_occupancy_pct] and the
    [[cycle, valid, zombie]] series. *)

val summary :
  ?top:int -> ?samples:Ppc.Recorder.sample list -> Ppc.Profile.t list ->
  string
(** Human-readable rendering: a PID × segment cost heatmap, the [top]
    (default 10) hot pages per kind, and one census / occupancy line per
    kernel (a thinned trajectory when [samples] are given). *)
