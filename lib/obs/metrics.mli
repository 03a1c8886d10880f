(** Named counters, gauges, and histograms for the simulation harness.

    A registry of three metric kinds, keyed by name:

    - {e counters} — monotone event counts ([incr]);
    - {e gauges} — last-write-wins instantaneous values ([set_gauge]);
    - {e histograms} — observed samples ([observe]) summarized on
      demand with count/sum/min/max/mean and the p50/p95/p99
      nearest-rank percentiles of {!Stats.percentile} (the same helper
      the experiment shape checks use).

    Used for per-node load distributions and per-phase wall-clock; the
    registry is single-domain (no locking), like the engines. *)

type t

type summary = {
  count : int;
  sum : float;
  min : float;
  max : float;
  mean : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

val create : unit -> t

val incr : t -> ?by:int -> string -> unit
(** Add [by] (default 1) to a counter, creating it at 0 first.
    @raise Invalid_argument if [by < 0]. *)

val counter : t -> string -> int
(** Current counter value (0 if never incremented). *)

val set_gauge : t -> string -> float -> unit
val gauge : t -> string -> float option

val observe : t -> string -> float -> unit
(** Append one sample to a histogram, creating it if needed. *)

val samples : t -> string -> float list
(** A histogram's samples in observation order ([[]] if unknown). *)

val summary : t -> string -> summary option
(** [None] if the histogram is unknown or empty. *)

val summarize : float list -> summary option
(** The summary of a raw sample list (shared with {!summary}); [None]
    on the empty list. *)

val merge : into:t -> t -> unit
(** Absorb a second registry: counters add, gauges last-write-wins
    (the source's value), histogram samples append in the source's
    observation order.  Used by the parallel sweep runner to fold
    per-task registries into the caller's, in deterministic task
    order, after the domains have joined — the registry itself stays
    single-domain. *)

val names : t -> string list
(** All registered metric names (counters, gauges, histograms),
    sorted, deduplicated. *)

val counters_list : t -> (string * int) list
(** Every registered counter with its value, sorted by name. *)

val gauges_list : t -> (string * float) list
(** Every registered gauge with its value, sorted by name. *)

val histogram_names : t -> string list
(** Every registered histogram name, sorted (per-kind enumeration for
    exposition writers; {!names} merges the three kinds). *)

val summary_to_json : summary -> Json.t

val to_json : t -> Json.t
(** [{"counters": {..}, "gauges": {..}, "histograms": {name:
    summary}}] with names sorted for stable output. *)
