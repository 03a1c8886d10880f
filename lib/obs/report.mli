(** Machine-readable run reports.

    The JSON rendering of one execution's cost accounting — everything
    [Engine.Ledger.pp] prints and more, as data: headline totals,
    per-class message counts, the paper's cost-model quantities
    (Definitions 1.1–1.4: messages, [TC(E)], learnings, the
    α-competitive cost), the per-node load distribution, and the
    per-round timeline.  [Engine.Run_result.to_report] builds one from
    a run; the CLI's [--json] flag prints it. *)

type t = {
  name : string;
      (** What ran, e.g. ["run/single-source/seed=42"] (spec name,
          algorithm, seed). *)
  completed : bool;
  rounds : int;
  messages : int;  (** Definition 1.1 total. *)
  class_counts : (string * int) list;
      (** Per-{!Engine.Msg_class} totals, in class order. *)
  tc : int;  (** [TC(E)] (Definition 1.2). *)
  removals : int;
  learnings : int;  (** Definition 1.4 token learnings. *)
  alpha : float;
  competitive_cost : float;
      (** [messages − α·TC(E)] (Definition 1.3). *)
  max_load : int;
  mean_load : float;
  load_summary : Metrics.summary option;
      (** Distribution of per-sender message loads. *)
  timeline : (int * int * int) list;
      (** [(round, cumulative messages, cumulative progress)]. *)
  extra : (string * Json.t) list;
      (** Caller extensions (e.g. Algorithm 2's phase breakdown),
          appended verbatim to the object. *)
}

val make :
  name:string ->
  completed:bool ->
  rounds:int ->
  messages:int ->
  class_counts:(string * int) list ->
  tc:int ->
  removals:int ->
  learnings:int ->
  alpha:float ->
  competitive_cost:float ->
  max_load:int ->
  mean_load:float ->
  ?load_summary:Metrics.summary ->
  ?timeline:(int * int * int) list ->
  ?extra:(string * Json.t) list ->
  unit ->
  t

val to_json : t -> Json.t
(** One object; [schema] field is ["dynspread-report/v1"].  The
    timeline becomes a list of [{"round","messages","progress"}]
    objects; [load_summary] is omitted when absent. *)

val pp : Format.formatter -> t -> unit
(** The JSON, compact. *)
