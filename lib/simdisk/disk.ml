(* Each file keeps a durable image and a volatile overlay; sync folds the
   overlay into the image, crash discards it. Contents are grown buffers. *)

type file_state = { mutable durable : Bytes.t; mutable volatile : Bytes.t }

type t = {
  files : (string, file_state) Hashtbl.t;
  write_latency_per_byte : float;
  sync_latency : float;
  mutable syncs : int;
  mutable written : int;
}

type file = { disk : t; state : file_state }

let create ?(write_latency_per_byte = 2e-9) ?(sync_latency = 1.3e-3) () =
  {
    files = Hashtbl.create 16;
    write_latency_per_byte;
    sync_latency;
    syncs = 0;
    written = 0;
  }

let open_file t name =
  let state =
    match Hashtbl.find_opt t.files name with
    | Some st -> st
    | None ->
      let st = { durable = Bytes.create 0; volatile = Bytes.create 0 } in
      Hashtbl.add t.files name st;
      st
  in
  { disk = t; state }

let exists t name = Hashtbl.mem t.files name
let delete t name = Hashtbl.remove t.files name
let size f = Bytes.length f.state.volatile

let read f ~pos ~len buf =
  if pos < 0 || len < 0 || pos + len > Bytes.length f.state.volatile then
    invalid_arg "Disk.read: out of bounds";
  Bytes.blit f.state.volatile pos buf 0 len

let ensure_capacity f n =
  let cur = Bytes.length f.state.volatile in
  if n > cur then begin
    let grown = Bytes.make n '\000' in
    Bytes.blit f.state.volatile 0 grown 0 cur;
    f.state.volatile <- grown
  end

let write f ~pos s =
  if pos < 0 then invalid_arg "Disk.write: negative position";
  ensure_capacity f (pos + String.length s);
  Bytes.blit_string s 0 f.state.volatile pos (String.length s);
  f.disk.written <- f.disk.written + String.length s

let truncate f n =
  if n < 0 then invalid_arg "Disk.truncate";
  if n < Bytes.length f.state.volatile then f.state.volatile <- Bytes.sub f.state.volatile 0 n
  else ensure_capacity f n

let sync f =
  f.disk.syncs <- f.disk.syncs + 1;
  f.state.durable <- Bytes.copy f.state.volatile

let sync_cost t = t.sync_latency
let write_cost t n = t.write_latency_per_byte *. float_of_int n

(* Order-free: each file's volatile image is reset independently. *)
let[@detlint.allow hashtbl_order] crash t =
  Hashtbl.iter (fun _ st -> st.volatile <- Bytes.copy st.durable) t.files
let sync_count t = t.syncs
let bytes_written t = t.written
