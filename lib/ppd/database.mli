(** RIM-PPD instances (paper §1, Figure 1): ordinary relations plus
    preference relations whose sessions carry Mallows models over the
    item domain.

    One o-relation is designated the *item relation*; its first attribute
    is the item id and its tuples define the item domain 0..m-1 (in tuple
    order). Labels are interned predicates over item-relation attributes:
    equality labels ("sex = F") and derived comparison labels
    ("year >= 1990"), which is how non-equality conditions on item
    attributes stay itemwise. *)

type session = { key : Value.t array; model : Rim.Mallows.t }
(** A session of a p-relation: its key attribute values and its
    preference model over item indices. *)

type p_relation
(** A preference relation: a name, session-key attributes, sessions. *)

val p_relation :
  name:string -> key_attrs:string list -> session list -> p_relation

val p_name : p_relation -> string
val p_key_attrs : p_relation -> string array
val sessions : p_relation -> session array

type t

val make :
  items:Relation.t ->
  ?relations:Relation.t list ->
  ?preferences:p_relation list ->
  unit ->
  t
(** Raises [Invalid_argument] if a session's model domain size differs
    from the item count, or if the item relation has duplicate ids. *)

val m : t -> int
(** Number of items. *)

val items : t -> Relation.t
val item_of_id : t -> Value.t -> int
(** Raises [Not_found]. *)

val id_of_item : t -> int -> Value.t
val find_relation : t -> string -> Relation.t
(** Item relation or any o-relation, by name. Raises [Not_found]. *)

val find_p_relation : t -> string -> p_relation
val p_relations : t -> p_relation list

val o_relations : t -> Relation.t list
(** The ordinary (non-item, non-preference) relations, in the order they
    were given to {!make} — the deconstruction hook the {!Case} codec
    needs to round-trip an instance through text. *)

(** {2 Label registry} *)

type label_key =
  | Attr_eq of string * Value.t
  | Attr_cmp of string * Value.op * Value.t
  | Universal  (** carried by every item; the constraint of an
                   unconstrained item variable *)

val intern_label : t -> label_key -> int
(** Id of the predicate label, allocating and materializing it over the
    item domain on first use. Raises [Not_found] for an unknown
    attribute.

    Interning is append-only and idempotent: ids are dense ([0..n-1] in
    allocation order), and an id, once allocated, names the same label
    and item set for the database's lifetime. So anything compiled
    against the database (a [Plan.t]) stays valid while later
    compilations intern more labels. The label registry is serialized
    per database: {!intern_label}, {!label_name} and {!labeling} may run
    on several threads or domains at once. *)

val label_name : t -> int -> string
(** Human-readable form of an interned label. *)

val labeling : t -> Prefs.Labeling.t
(** Current labeling function (items → interned labels). Cached;
    invalidated by {!intern_label}. *)

val item_attr : t -> int -> string -> Value.t
(** [item_attr db i attr] — attribute value of item [i]. *)
