(** Non-Boolean conjunctive queries: answer tuples with confidences.

    Following probabilistic-database semantics, a query with head
    variables [Q(x̄) :- body] returns, for every grounding [ā] of [x̄]
    over the active domain, the confidence [Pr(body[x̄ := ā] | D)] — the
    probability that the instantiated Boolean query holds in a random
    possible world. Head variables must occur in the body as item
    variables or item-relation attribute variables.

    This module only grounds and ranks: the Boolean probabilities come
    from the evaluator the caller passes ([hardq answers] runs one engine
    batch over the groundings; [Ppd.Solve.boolean_prob] is the
    sequential reference). *)

type answer = { values : Value.t list; confidence : float }

val domains : Database.t -> Query.t -> (string * Value.t list) list
(** Active domain of each head variable, in head order: the item-id
    column for item variables, the (intersected) attribute columns for
    attribute variables, filtered by the query's comparisons on that
    variable. Raises {!Compile.Unsupported} for a head variable that is
    neither. *)

val groundings : Database.t -> Query.t -> (Value.t list * Query.t) list
(** Every grounding of the head over {!domains}, with the Boolean query
    it stands for. A query with an empty head has one grounding: no
    values and the query itself. *)

val evaluate :
  ?min_confidence:float ->
  (Query.t list -> float list) ->
  Database.t ->
  Query.t ->
  answer list
(** [evaluate prob db q]: {!groundings}, their Boolean probabilities from
    one [prob] call (one float per query, in order), and all answers with
    confidence above [min_confidence] (default 0: answers with confidence
    exactly 0 are dropped), sorted by descending confidence. *)

val top :
  k:int -> (Query.t list -> float list) -> Database.t -> Query.t -> answer list
(** The [k] most probable answers of {!evaluate}. *)
