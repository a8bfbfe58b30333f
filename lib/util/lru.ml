(* Each hit restamps its entry with a monotonic tick; an insert into a full
   table drops the entry with the oldest stamp. Eviction scans the table —
   O(size) — which is fine for the small tables this serves, and happens
   only on an insert past capacity. *)

type ('k, 'v) t = {
  capacity : int;
  table : ('k, 'v * int ref) Hashtbl.t;
  mutex : Mutex.t;
  mutable clock : int;
  mutable evictions : int;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Lru.create";
  {
    capacity;
    table = Hashtbl.create 64;
    mutex = Mutex.create ();
    clock = 0;
    evictions = 0;
  }

let tick t =
  t.clock <- t.clock + 1;
  t.clock

let find t key =
  Mutex.protect t.mutex (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some (v, stamp) ->
        stamp := tick t;
        Some v
      | None -> None)

let evict_oldest t =
  let victim =
    Hashtbl.fold
      (fun key (_, stamp) acc ->
        match acc with
        | Some (_, best) when best <= !stamp -> acc
        | _ -> Some (key, !stamp))
      t.table None
  in
  match victim with
  | Some (key, _) ->
    Hashtbl.remove t.table key;
    t.evictions <- t.evictions + 1
  | None -> ()

let add t key v =
  Mutex.protect t.mutex (fun () ->
      if not (Hashtbl.mem t.table key) then begin
        if Hashtbl.length t.table >= t.capacity then evict_oldest t;
        Hashtbl.add t.table key (v, ref (tick t))
      end)

let length t = Mutex.protect t.mutex (fun () -> Hashtbl.length t.table)
let evictions t = Mutex.protect t.mutex (fun () -> t.evictions)
