"""Shared store-test helper: string triples into a DistributedStore."""

from repro.store.kvstore import BASE_SN


def load_triples(store, triples, sn=BASE_SN):
    """Encode string ``triples`` and write them under ``sn`` through
    ``DistributedStore.insert_columns``; returns how many."""
    columns = store.strings.encode_triples(triples)
    store.insert_columns(columns, sn=sn)
    return len(columns)
