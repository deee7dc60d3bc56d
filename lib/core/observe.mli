(** Observed runs of registry experiments: the one place the
    instruments are armed and collected.

    The experiment registry boots its own kernels, out of the caller's
    reach, so observation works through the one process-wide
    [Kernel.instruments] default (plus [Server.set_boot_requests]).
    {!run} sets it before any worker forks, installs a
    {!Runner.collect_hook} that drains the kernels each experiment
    booted in whatever process hosted it, reads every armed instrument
    off them and ships one JSON payload back over the result pipe, and
    restores the caller's default when the run ends.  Because the data
    is drained where it was recorded, every instrument composes with
    any [--jobs] count, and the merged result is byte-identical to a
    serial run. *)

type spec = {
  trace : bool;  (** arm event rings and latency histograms *)
  profile : bool;  (** arm attribution profiling *)
  spans : bool;  (** arm per-request span recorders *)
  shadow : bool;
      (** cross-check every translation against the reference MMU *)
  cpus : int;  (** boot CPU count for every kernel (1 = uniprocessor) *)
  record : (int * Flight.rule list) option;
      (** stream flight-recorder timelines, sampling every [n] cycles,
          under these detector rules — the one source of Perf and htab
          occupancy series *)
  requests : int option;
      (** request count for the server-model experiments; [None] keeps
          the current default *)
}

val nothing : spec
(** Every instrument off, one CPU, default request count. *)

type shadow_verdict = {
  checks : int;  (** translations cross-checked *)
  divergences : int;  (** disagreements with the reference MMU *)
  reports : string list;
      (** {!Ppc.Shadow.report} of each retained divergence *)
}

type result = {
  id : string;
  outcome : Runner.outcome;
  observability : Json.t option;
      (** the results document's per-experiment object: ["trace"]
          fields, ["profile"], ["spans"], ["smp"], in that order;
          [None] when nothing was observed *)
  shadow : shadow_verdict;  (** all zero unless [spec.shadow] *)
  flight : string list;
      (** timeline lines, run ids numbered across the whole run in
          registry order (never reused), so the file is the same at
          every job count *)
}

val run :
  ?jobs:int ->
  ?seed:int ->
  ?timeout:float ->
  ?retries:int ->
  spec ->
  (string * (?seed:int -> unit -> Experiments.table)) list ->
  result list
(** Arm [spec] as the [Kernel] instruments default,
    {!Runner.run_collect} the experiments, then restore (also on an
    exception) the caller's default and booted-kernel list, the
    previous {!Runner.collect_hook} and the server request count.
    Results come back in input order.  An experiment whose host died
    before delivering carries no observability, no flight lines, and a
    zero shadow verdict. *)
