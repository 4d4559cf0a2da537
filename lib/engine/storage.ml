module Metrics = Tm_obs.Metrics

exception Transient of string

(* A backend is a record of closures, like {!Recovery}: each constructor
   closes over its own state. *)
type t = {
  name : string;
  write : pos:int -> Bytes.t -> int -> int -> unit;  (* pos, buffer, off, len *)
  force : unit -> unit;
  read_all : unit -> string;
  size : unit -> int;
  close : unit -> unit;
  fault_count : unit -> int;
  attach : Metrics.t -> unit;
}

let name t = t.name

let write t ~pos b ~off ~len =
  if off < 0 || len < 0 || off > Bytes.length b - len then invalid_arg "Storage.write";
  t.write ~pos b off len

let write_at t ~pos data =
  write t ~pos (Bytes.unsafe_of_string data) ~off:0 ~len:(String.length data)

let force t = t.force ()
let read_all t = t.read_all ()
let size t = t.size ()
let close t = t.close ()
let fault_count t = t.fault_count ()
let attach_metrics t reg = t.attach reg

let check_pos ~who ~pos ~size =
  if pos < 0 || pos > size then
    invalid_arg (Fmt.str "Storage.write_at(%s): pos %d outside [0,%d]" who pos size)

(* The in-memory image lives in fixed-size pages, so a write copies only
   its own bytes, never the whole image.  Only the page table grows
   geometrically; the bytes past the end fill at most one page. *)
let page_size = 4096
let no_page = Bytes.empty
let pages_for len = (len + page_size - 1) / page_size

(* Copy [n] bytes of [src] from [src_off] into the pages at [pos]. *)
let rec blit_into pages src src_off pos n =
  if n > 0 then begin
    let off = pos mod page_size in
    let k = min n (page_size - off) in
    Bytes.blit src src_off pages.(pos / page_size) off k;
    blit_into pages src (src_off + k) (pos + k) (n - k)
  end

(* Copy the first [len] bytes of the pages into [dst]. *)
let rec blit_out pages dst pos len =
  if pos < len then begin
    let k = min page_size (len - pos) in
    Bytes.blit pages.(pos / page_size) 0 dst pos k;
    blit_out pages dst (pos + k) len
  end

let of_string ?(name = "memory") contents =
  (* [contents] is served uncopied until the first write moves it into
     pages. *)
  let seed = ref (Some contents) in
  let pages = ref [||] in
  let len = ref (String.length contents) in
  (* Make [pages] hold exactly the pages of an image of length [n]:
     allocate the missing ones, release those past the end. *)
  let resize n =
    let need = pages_for n and have = Array.length !pages in
    if need > have then begin
      let grown = Array.make (max need (2 * have)) no_page in
      Array.blit !pages 0 grown 0 have;
      pages := grown
    end;
    let p = !pages in
    for i = 0 to need - 1 do
      if p.(i) == no_page then p.(i) <- Bytes.create page_size
    done;
    for i = need to min (pages_for !len) (Array.length p) - 1 do
      p.(i) <- no_page
    done
  in
  let write ~pos b off n =
    check_pos ~who:name ~pos ~size:!len;
    resize (pos + n);
    (match !seed with
    | None -> ()
    | Some s ->
        seed := None;
        blit_into !pages (Bytes.unsafe_of_string s) 0 0 pos);
    blit_into !pages b off pos n;
    len := pos + n
  in
  let read_all () =
    match !seed with
    | Some s -> s
    | None ->
        let b = Bytes.create !len in
        blit_out !pages b 0 !len;
        Bytes.unsafe_to_string b
  in
  {
    name;
    write;
    force = (fun () -> ());
    read_all;
    size = (fun () -> !len);
    close = (fun () -> ());
    fault_count = (fun () -> 0);
    attach = (fun _ -> ());
  }

let memory ?name () = of_string ?name ""

let file path =
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
  (* The OS can interrupt any of these mid-call; those are the genuine
     transient errors a production log retries. *)
  let io f =
    try f () with
    | Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), fn, _) ->
        raise (Transient (Fmt.str "%s: interrupted" fn))
  in
  (* The slice goes to the kernel as it is, uncopied. *)
  let rec write_all b off stop =
    if off < stop then write_all b (off + io (fun () -> Unix.write fd b off (stop - off))) stop
  in
  let file_size () = (Unix.fstat fd).Unix.st_size in
  {
    name = path;
    write =
      (fun ~pos b off len ->
        check_pos ~who:path ~pos ~size:(file_size ());
        ignore (io (fun () -> Unix.lseek fd pos Unix.SEEK_SET));
        write_all b off (off + len);
        io (fun () -> Unix.ftruncate fd (pos + len)));
    force = (fun () -> io (fun () -> Unix.fsync fd));
    read_all =
      (fun () ->
        let len = file_size () in
        let b = Bytes.create len in
        ignore (io (fun () -> Unix.lseek fd 0 Unix.SEEK_SET));
        let rec go off =
          if off < len then
            match io (fun () -> Unix.read fd b off (len - off)) with
            | 0 -> Bytes.sub_string b 0 off  (* concurrent truncation *)
            | n -> go (off + n)
          else Bytes.to_string b
        in
        go 0);
    size = file_size;
    close = (fun () -> try Unix.close fd with Unix.Unix_error _ -> ());
    fault_count = (fun () -> 0);
    attach = (fun _ -> ());
  }

(* ------------------------------------------------------------------ *)
(* Observation hooks: write/force ordering, simulated latency.        *)

let probe ?(on_write = fun ~pos:_ _ -> ()) ?(on_force = fun () -> ()) inner =
  {
    inner with
    name = inner.name ^ "+probe";
    write =
      (fun ~pos b off len ->
        on_write ~pos len;
        inner.write ~pos b off len);
    force =
      (fun () ->
        on_force ();
        inner.force ());
  }

(* ------------------------------------------------------------------ *)
(* Fault injection.                                                    *)

type fault_config = {
  torn_write : float;
  write_error : float;
  force_error : float;
  bit_flip : float;
  short_read : float;
}

let no_faults =
  { torn_write = 0.; write_error = 0.; force_error = 0.; bit_flip = 0.; short_read = 0. }

let write_faults = { no_faults with torn_write = 0.1; write_error = 0.08; force_error = 0.08 }

let faulty ~seed cfg inner =
  let rng = Random.State.make [| seed; 0x57a9 |] in
  let metrics = ref None in
  let faults = ref 0 in
  let inject kind =
    incr faults;
    match !metrics with
    | None -> ()
    | Some reg ->
        Metrics.Counter.incr
          (Metrics.counter reg "tm_storage_faults_total"
             ~labels:[ ("backend", inner.name); ("kind", kind) ])
  in
  let hit p = p > 0. && Random.State.float rng 1. < p in
  let flip_bit data =
    let b = Bytes.of_string data in
    let i = Random.State.int rng (Bytes.length b) in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl Random.State.int rng 8)));
    Bytes.to_string b
  in
  {
    name = inner.name ^ "+faults";
    write =
      (fun ~pos b off len ->
        if hit cfg.write_error then begin
          inject "write_error";
          raise (Transient "injected: write error")
        end
        else if len > 1 && hit cfg.torn_write then begin
          inject "torn_write";
          (* A strict prefix reaches the device before the failure; the
             retry must overwrite it by rewriting at the same position. *)
          let torn = 1 + Random.State.int rng (len - 1) in
          inner.write ~pos b off torn;
          raise (Transient (Fmt.str "injected: torn write (%d/%d bytes)" torn len))
        end
        else inner.write ~pos b off len);
    force =
      (fun () ->
        if hit cfg.force_error then begin
          inject "force_error";
          raise (Transient "injected: force error")
        end
        else inner.force ());
    read_all =
      (fun () ->
        let data = inner.read_all () in
        if String.length data > 0 && hit cfg.short_read then begin
          inject "short_read";
          String.sub data 0 (Random.State.int rng (String.length data))
        end
        else if String.length data > 0 && hit cfg.bit_flip then begin
          inject "bit_flip";
          flip_bit data
        end
        else data);
    size = inner.size;
    close = inner.close;
    fault_count = (fun () -> !faults);
    attach =
      (fun reg ->
        metrics := Some reg;
        inner.attach reg);
  }
