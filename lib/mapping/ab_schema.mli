(** Attribute-based schema construction — the data-model transformations of
    §III.C, producing the kernel descriptor for a database.

    Representation (one file per record type):
    - [<FILE, record_type>] names the file;
    - [<record_type, k>] is the artificial unique-key attribute (§III.C.1);
      [k] equals the database key of the entity's {e primary} record;
    - one keyword per scalar item;
    - one keyword per set the record participates in, named after the set
      and holding the related record's key ([Null] when unconnected):
      ISA sets, single-valued-function sets, and LINK sets store the
      reference in the {e member} record; one-to-many-function sets store
      it in the {e owner} record (which is duplicated per member, exactly
      like records duplicated by scalar multi-valued functions —
      §VI.D.2). *)

(** Which flavour of attribute-based database a descriptor describes. *)
type flavor =
  | Fun of Transformer.Transform.t
      (** AB(functional): a network schema transformed from Daplex, with
          set origins *)
  | Net of Network.Schema.t
      (** AB(network): a native network schema; every non-SYSTEM set is
          member-held *)

type held =
  | Member_holds
  | Owner_holds

(** [descriptor flavor] builds the kernel database descriptor. *)
val descriptor : flavor -> Abdm.Descriptor.t

(** [network_schema flavor] — the underlying network schema. *)
val network_schema : flavor -> Network.Schema.t

(** [entity_key record_type record ~dbkey] — the entity's unique key: the
    value of the record's own key attribute when set, else [dbkey] (LINK
    records carry no key attribute). *)
val entity_key : string -> Abdm.Record.t -> dbkey:int -> int
