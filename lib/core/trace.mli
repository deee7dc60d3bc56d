(** Exporters for {!Ppc.Trace} — the half of the observability layer
    that formats, as opposed to records.

    {!Ppc.Trace} owns the hot-path API (ring buffer, histograms) because
    the MMU and kernel instrumentation live below this library in the
    dependency order; this module turns a finished trace into Chrome
    trace-event JSON (loadable in Perfetto or [chrome://tracing]),
    machine-readable distribution documents for experiment results, and
    a human-readable text summary.  Counter timelines come from the
    flight recorder: callers pass the {!Ppc.Recorder} samples they
    streamed. *)

open Ppc

val to_chrome :
  ?mhz:int -> ?name:string -> ?samples:Recorder.sample list -> Trace.t ->
  Json.t
(** [to_chrome tr] renders the retained events as a Chrome trace-event
    document ([{"traceEvents": [...]}]).  Timestamps are microseconds:
    simulated cycles divided by [mhz] (default 100, the paper's 604e
    clock).  Span kinds (TLB reloads, context switches, run slices, idle
    windows) become complete events (ph ["X"]) with durations; the rest
    are instants (ph ["i"]).  Events carry the owning task's PID as the
    thread id (0 = kernel/idle) and decoded payloads in [args].
    [samples] (default none), the recorder's stream for the same run in
    chronological order, adds counter tracks (ph ["C"]) of per-interval
    deltas. *)

val hist_to_json : Hist.t -> Json.t
(** Count/sum/max/mean, p50/p90/p99, and the non-empty buckets as
    [[lo, hi, count]] triples. *)

val hists_to_json : Trace.t -> Json.t
(** The trace's three latency histograms keyed by name. *)

val kind_counts_json : Trace.t -> Json.t
(** Event totals by kind (wrap-immune), zero kinds omitted. *)

val observability_fields : Trace.t list -> (string * Json.t) list
(** The per-run fields embedded in experiment results when tracing is
    armed: event totals and merged histograms across every kernel the
    run booted. *)

val summary : ?samples:Recorder.sample list -> Trace.t -> string
(** Flamegraph-flavoured text report: event counts with bars, latency
    distributions with percentiles, and the count of [samples] (the
    recorder stream passed to {!to_chrome}) when there are any. *)
