"""``run_txn``: the one way a test runs a single transaction to completion.

A plain module, not ``conftest.py``: test modules import it by name, and a
``conftest`` name is shadowed by each directory's own conftest.
"""

from repro.hat.transaction import Transaction


def run_txn(testbed, client, transaction):
    """Run one transaction to completion and return its result; a sequence
    of operations stands for the transaction made of them."""
    if not isinstance(transaction, Transaction):
        transaction = Transaction(list(transaction))
    return testbed.env.run_until_complete(client.execute(transaction))
