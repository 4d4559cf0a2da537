(* The WAL frame encoder and CRC-32 as they were before the codec wrote
   frames in place: a [Buffer] for the payload and another for the
   frame, every integer boxed as an [Int64], and the CRC folded over an
   [Int32] ref.  v3's varints are derived here from the definition
   rather than from the codec's bit tricks: the zigzag image is 2n for
   n >= 0 and -2n - 1 below, computed as an unsigned [Int64], and is
   written seven bits a byte while the unsigned rest is nonzero.  It is
   the oracle of the byte-identity properties in test_storage.ml, which
   check that [Wal.Codec.encode] and [Wal.Codec.crc32] produce exactly
   these bytes.  The argument checks of [encode] are left out; the
   tests only ask for valid frames. *)

open Tm_core
module Wal = Tm_engine.Wal

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref (Int32.of_int n) in
         for _ = 0 to 7 do
           c :=
             if Int32.logand !c 1l <> 0l then
               Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
             else Int32.shift_right_logical !c 1
         done;
         !c))

let crc32 s =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFFl in
  String.iter
    (fun ch ->
      c :=
        Int32.logxor
          table.(Int32.to_int (Int32.logand (Int32.logxor !c (Int32.of_int (Char.code ch))) 0xFFl))
          (Int32.shift_right_logical !c 8))
    s;
  Int32.logxor !c 0xFFFFFFFFl

(* How the frame being built writes its integers: [true] for v1/v2's 8
   fixed bytes, [false] for v3's varints. *)
let fixed = ref true

let put_u64 b i = Buffer.add_int64_le b (Int64.of_int i)

let put_varint b i =
  let n = Int64.of_int i in
  let z = if i >= 0 then Int64.mul 2L n else Int64.sub (Int64.mul (-2L) n) 1L in
  let rec go z =
    let rest = Int64.shift_right_logical z 7 in
    let low = Int64.to_int (Int64.logand z 0x7fL) in
    if Int64.equal rest 0L then Buffer.add_char b (Char.chr low)
    else begin
      Buffer.add_char b (Char.chr (low + 128));
      go rest
    end
  in
  go z

let put_int b i = if !fixed then put_u64 b i else put_varint b i
let put_string b s = put_int b (String.length s); Buffer.add_string b s
let put_list put b l = put_int b (List.length l); List.iter (put b) l
let put_tid b tid = put_int b (Tid.to_int tid)

let rec put_value b = function
  | Value.Unit -> Buffer.add_char b '\000'
  | Value.Bool false -> Buffer.add_char b '\001'
  | Value.Bool true -> Buffer.add_char b '\002'
  | Value.Int i -> Buffer.add_char b '\003'; put_int b i
  | Value.Str s -> Buffer.add_char b '\004'; put_string b s
  | Value.List l -> Buffer.add_char b '\005'; put_list put_value b l

let put_op b (op : Op.t) =
  put_string b op.obj;
  put_string b op.inv.Op.name;
  put_list put_value b op.inv.Op.args;
  put_value b op.res

let put_record b = function
  | Wal.Begin tid -> Buffer.add_char b '\000'; put_tid b tid
  | Wal.Operation (tid, op) -> Buffer.add_char b '\001'; put_tid b tid; put_op b op
  | Wal.Commit tid -> Buffer.add_char b '\002'; put_tid b tid
  | Wal.Abort tid -> Buffer.add_char b '\003'; put_tid b tid
  | Wal.Checkpoint cp ->
      Buffer.add_char b '\004';
      put_list put_op b cp.Wal.committed;
      put_list (fun b (tid, ops) -> put_tid b tid; put_list put_op b ops) b cp.Wal.live;
      put_int b cp.Wal.next_tid
  | Wal.Truncate_intent { old_len; new_len } ->
      Buffer.add_char b '\005';
      put_u64 b old_len;
      put_u64 b new_len
  | Wal.Prepare tid -> Buffer.add_char b '\006'; put_tid b tid
  | Wal.Decision { tid; commit } ->
      Buffer.add_char b '\007';
      put_tid b tid;
      Buffer.add_char b (if commit then '\001' else '\000')

let encode ?(version = Wal.Codec.write_version) ?(shard = 0) r =
  let payload = Buffer.create 64 in
  fixed := version < Wal.Codec.v3;
  put_record payload r;
  let payload = Buffer.contents payload in
  let b = Buffer.create (Wal.Codec.header_size version + String.length payload) in
  Buffer.add_char b Wal.Codec.magic0;
  Buffer.add_char b Wal.Codec.magic1;
  Buffer.add_char b (Char.chr version);
  if version <> Wal.Codec.v1 then Buffer.add_uint16_le b shard;
  Buffer.add_int32_le b (Int32.of_int (String.length payload));
  Buffer.add_int32_le b (crc32 payload);
  Buffer.add_string b payload;
  Buffer.contents b
