type rb = {
  mutable rb_entries : (int * Abdm.Record.t) array;
  mutable rb_cursor : int;
}

type t = {
  kernel : Mapping.Kernel.t;
  flavor : Mapping.Ab_schema.flavor;
  descriptor : Abdm.Descriptor.t;
  cit : Network.Currency.t;
  uwa : Network.Uwa.t;
  buffers : (string, rb) Hashtbl.t;
}

let create kernel flavor =
  {
    kernel;
    flavor;
    descriptor = Mapping.Ab_schema.descriptor flavor;
    cit = Network.Currency.create ();
    uwa = Network.Uwa.create ();
    buffers = Hashtbl.create 16;
  }

let net_schema t = Mapping.Ab_schema.network_schema t.flavor

let buffer t set_name = Hashtbl.find_opt t.buffers set_name

let set_buffer t set_name entries =
  let rb = { rb_entries = Array.of_list entries; rb_cursor = -1 } in
  Hashtbl.replace t.buffers set_name rb;
  rb

let drop_buffers t = Hashtbl.reset t.buffers
