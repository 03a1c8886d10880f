(** Deterministic parallel map over independent experiment points.

    The experiment sweeps (E1's n × k-regime grid, E4's n × k ×
    environment grid, E7's k × replicate grid) are embarrassingly
    parallel: every point derives its own RNG streams from [(seed, n,
    k, …)] alone and shares no state with its siblings.  [map] runs
    such points across OCaml 5 domains and returns the results {e in
    input order}, so the caller's sequential merge — row building,
    win counting, slope fitting — sees exactly what a [jobs = 1] run
    would see.  Fixed seed in, bit-identical tables out, whatever
    [jobs] is.

    Scheduling is dynamic (an [Atomic] cursor over the point array, so
    a slow point does not stall a whole stripe) but the output array is
    indexed by input position, making the schedule unobservable.  If a
    point raises, the exception of the {e lowest-indexed} failing
    point is re-raised after all domains join — again independent of
    scheduling.

    Points must be self-contained: they must not mutate shared
    structures (in particular they must not write to a shared
    {!Obs.Metrics.t} — the registry is single-domain by design; see
    {!map_span}'s [?metrics] and {!Obs.Metrics.merge} for the
    sanctioned patterns). *)

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the CLI's and bench
    harness's default for [--jobs]. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map ~jobs f points] applies [f] to every point and returns the
    results in input order.  [jobs <= 1] (the default) or fewer than
    two points runs sequentially in the calling domain with no domain
    spawned at all; otherwise [min jobs (Array.length points)] domains
    (the caller included) pull points off a shared cursor. *)

val map_span :
  ?jobs:int -> ?metrics:Obs.Metrics.t -> ?prof:Obs.Span.t -> name:string ->
  (prof:Obs.Span.t -> 'a -> 'b) -> 'a array -> 'b array
(** [map] plus per-point wall-clock and hierarchical profiling ([map]
    is this with neither).  Each point's elapsed seconds is measured
    inside its worker ({!Obs.Timer.time}) but recorded into [metrics]
    under histogram [name] only after the domains have joined, in
    input order — the registry is touched by the calling domain alone,
    and the sample order is schedule-independent.  The whole sweep
    runs inside a [sweep:<name>] span on [prof], each point runs
    inside a [point]-category span named [name], and each point
    receives the
    profiler lane of the domain executing it as [~prof] (so engine
    round/phase spans recorded inside the point land in the right
    lane).  Helper domains get fresh {!Obs.Span.worker} lanes
    ([sweep-w1], [sweep-w2], …) absorbed back after the join; the
    calling domain records into [prof] itself.  The sweep span carries
    per-worker busy-seconds counters ([busy_s_w0], …) and an
    [imbalance] counter ([(max - min) / max] of worker busy times).
    Results, error propagation, and metrics recording keep the [map]
    contract: input order, lowest-index failure, registry touched only
    by the calling domain after the join. *)
